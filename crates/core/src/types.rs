//! Shared vocabulary for power controllers.

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
    /// Aggregate both partitions in one pass, simulation first: each one's
    /// slowest node time, summed power, node count and mean per-node cap,
    /// the sums folded in node order. A partition with no samples is
    /// `None`.
    ///
    /// The slowest time is kept as two running maxima, over even and odd
    /// positions, so the two `max` chains run side by side. `max` ignores
    /// NaN, so the maximum is the same in any order; only the sign of a
    /// zero result can differ, and a partition whose slowest time is zero
    /// is held by every controller that reads it.
    pub(crate) fn partitions(&self) -> [Option<PartitionView>; 2] {
        #[derive(Clone, Copy)]
        struct Fold {
            time_s: [f64; 2],
            power_w: f64,
            cap_sum: f64,
            count: usize,
        }
        impl Fold {
            #[inline(always)]
            fn add<const L: usize>(&mut self, n: &NodeSample) {
                self.time_s[L] = self.time_s[L].max(n.time_s);
                self.power_w += n.power_w;
                self.cap_sum += n.cap_w;
                self.count += 1;
            }
        }
        #[inline(always)]
        fn add<const L: usize>(sim: &mut Fold, ana: &mut Fold, n: &NodeSample) {
            match n.role {
                Role::Simulation => sim.add::<L>(n),
                Role::Analysis => ana.add::<L>(n),
            }
        }
        let zero = Fold { time_s: [0.0; 2], power_w: 0.0, cap_sum: 0.0, count: 0 };
        let (mut sim, mut ana) = (zero, zero);
        let mut pairs = self.nodes.chunks_exact(2);
        for pair in &mut pairs {
            add::<0>(&mut sim, &mut ana, &pair[0]);
            add::<1>(&mut sim, &mut ana, &pair[1]);
        }
        if let [n] = pairs.remainder() {
            add::<0>(&mut sim, &mut ana, n);
        }
        [sim, ana].map(|f| {
            (f.count > 0).then(|| PartitionView {
                time_s: f.time_s[0].max(f.time_s[1]),
                power_w: f.power_w,
                nodes: f.count,
                cap_per_node_w: f.cap_sum / f.count as f64,
            })
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

    /// Write the cap of every node in `nodes` into `caps`, lane for lane:
    /// the first `sim` nodes are simulation nodes, the rest analysis
    /// nodes, and `nodes` ascends. Two fills give each lane its role's
    /// uniform cap, then the overrides are merged in: in lock-step when
    /// `per_node_w` honours the ascending-unique contract, else one search
    /// per entry, last entry first, so a node's first entry wins.
    pub fn write_caps(&self, nodes: &[usize], sim: usize, caps: &mut Vec<f64>) {
        debug_assert!(
            sim <= nodes.len() && nodes.is_sorted(),
            "sim nodes, then analysis, ascending"
        );
        caps.clear();
        caps.resize(sim, self.sim_node_w);
        caps.resize(nodes.len(), self.analysis_node_w);
        if self.per_node_w.windows(2).all(|w| w[0].0 < w[1].0) {
            let mut lane = 0;
            for &(node, w) in &self.per_node_w {
                while nodes.get(lane).is_some_and(|&n| n < node) {
                    lane += 1;
                }
                match nodes.get(lane) {
                    Some(&n) if n == node => caps[lane] = w,
                    Some(_) => {}
                    None => break,
                }
            }
        } else {
            for &(node, w) in self.per_node_w.iter().rev() {
                if let Ok(lane) = nodes.binary_search(&node) {
                    caps[lane] = w;
                }
            }
        }
    }
}

#[cfg(test)]
impl Allocation {
    /// Cap for one node under this allocation: [`Allocation::write_caps`]
    /// over that node alone.
    pub(crate) fn cap_for(&self, node: usize, role: Role) -> f64 {
        let mut caps = Vec::with_capacity(1);
        self.write_caps(&[node], usize::from(role == Role::Simulation), &mut caps);
        caps[0]
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
        let [s, a] = obs().partitions().map(Option::unwrap);
        assert_eq!(s.time_s, 4.2);
        assert_eq!(s.power_w, 217.0);
        assert_eq!(s.nodes, 2);
        assert_eq!(a.time_s, 2.0);
        assert_eq!(a.nodes, 2);
    }

    /// The one-pass, two-chain aggregate against a serial pass per role,
    /// on generated observations: odd and even lengths, roles in any
    /// order, NaN, zero and negative times. The sums and counts match bit
    /// for bit, and the slowest time too unless it is a zero.
    #[test]
    fn partitions_fold_like_a_serial_pass_per_role() {
        let mut rng = des::Rng::seed_from_u64(0x9A27);
        for len in (0..=9).chain([64, 257]) {
            for _ in 0..50 {
                let odd = [f64::NAN, 0.0, -0.0, -1.0];
                let nodes = (0..len)
                    .map(|node| NodeSample {
                        node,
                        role: if rng.next_f64() < 0.5 { Role::Simulation } else { Role::Analysis },
                        time_s: if rng.next_f64() < 0.2 {
                            odd[rng.next_below(4) as usize]
                        } else {
                            rng.uniform(0.1, 9.0)
                        },
                        power_w: rng.uniform(50.0, 200.0),
                        cap_w: rng.uniform(98.0, 215.0),
                    })
                    .collect();
                let o = SyncObservation { step: 1, nodes };
                let serial = |role| {
                    let of_role = o.nodes.iter().filter(|n| n.role == role);
                    let count = of_role.clone().count();
                    (count > 0).then(|| {
                        let time_s = of_role.clone().fold(0.0, |t: f64, n| t.max(n.time_s));
                        let power_w = of_role.clone().fold(0.0, |p, n| p + n.power_w);
                        let cap_sum = of_role.fold(0.0, |c, n| c + n.cap_w);
                        (time_s, power_w, count, cap_sum / count as f64)
                    })
                };
                let got = o.partitions();
                for (view, role) in got.iter().zip([Role::Simulation, Role::Analysis]) {
                    let want = serial(role);
                    assert_eq!(view.is_some(), want.is_some(), "len {len}");
                    let (Some(v), Some((t, p, k, c))) = (view, want) else { continue };
                    assert!(v.time_s.to_bits() == t.to_bits() || (v.time_s == 0.0 && t == 0.0));
                    assert_eq!((v.power_w.to_bits(), v.nodes), (p.to_bits(), k));
                    assert_eq!(v.cap_per_node_w.to_bits(), c.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_partition_is_none() {
        let o = SyncObservation { step: 0, nodes: vec![] };
        assert_eq!(o.partitions(), [None, None]);
    }

    #[test]
    fn allocation_cap_for_respects_overrides() {
        let mut a = Allocation::uniform(120.0, 100.0);
        a.per_node_w.push((3, 98.0));
        assert_eq!(a.cap_for(0, Role::Simulation), 120.0);
        assert_eq!(a.cap_for(2, Role::Analysis), 100.0);
        assert_eq!(a.cap_for(3, Role::Analysis), 98.0);
    }

    /// The `per_node_w` contract: the caps column (over ascending node
    /// sets with gaps, split anywhere into simulation then analysis, and
    /// through the one-off `cap_for`) answers exactly like a linear
    /// first-match scan, for ascending-unique lists as the controllers
    /// produce them and for unsorted, duplicate-bearing hand-built ones.
    #[test]
    fn write_caps_equals_linear_first_match_on_random_allocations() {
        use crate::reference::linear_cap_for;
        let mut rng = des::Rng::seed_from_u64(0xCA9_F02);
        let mut caps = Vec::new();
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
            // Ascending nodes with gaps, two past the end of the span.
            let nodes: Vec<usize> = (0..span + 2).filter(|_| rng.next_f64() < 0.8).collect();
            let sim = rng.next_below(nodes.len() as u64 + 1) as usize;
            let role = |lane: usize| if lane < sim { Role::Simulation } else { Role::Analysis };
            a.write_caps(&nodes, sim, &mut caps);
            assert_eq!(caps.len(), nodes.len());
            for (lane, &n) in nodes.iter().enumerate() {
                let want = linear_cap_for(&a, n, role(lane)).to_bits();
                assert_eq!(caps[lane].to_bits(), want, "case {case} n {n}");
                assert_eq!(a.cap_for(n, role(lane)).to_bits(), want, "case {case} n {n}");
            }
        }
    }

    #[test]
    fn write_caps_first_match_wins_and_absent_falls_back() {
        let mut a = Allocation::uniform(120.0, 100.0);
        a.per_node_w = vec![(5, 101.0), (2, 102.0), (5, 103.0), (2, 104.0)];
        assert_eq!(a.cap_for(5, Role::Simulation), 101.0);
        assert_eq!(a.cap_for(2, Role::Analysis), 102.0);
        assert_eq!(a.cap_for(3, Role::Simulation), 120.0);
        assert_eq!(a.cap_for(9, Role::Analysis), 100.0);
        let mut caps = Vec::new();
        a.write_caps(&[2, 3, 5, 9], 2, &mut caps);
        assert_eq!(caps, [102.0, 120.0, 101.0, 100.0]);
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
