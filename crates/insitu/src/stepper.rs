//! The cluster stepping core: how one partition's nodes advance through a
//! sync interval's phase list.
//!
//! Phase-major over the cluster's node columns. Every node's phase jitters
//! are drawn first, node by node and phase by phase: the order a
//! node-major walk draws them in, so the shared jitter stream ends where
//! that walk leaves it. Then `Cluster::walk` runs each phase as one column
//! pass over the partition: every node is a lane, a node whose pending cap
//! change lands inside the phase is split there in a second sub-step, and
//! the phase's operating points are evaluated once per distinct enforced
//! cap. A node's step reads and writes only that node's columns and its
//! own span buffer (flushed per node, in id order), so the order in which
//! nodes step is unobservable.

use des::SimTime;
use theta_sim::{Cluster, MachineConfig, OpMemo, Work};

/// Per-node inputs for one partition's advance.
pub(crate) struct NodeCtx {
    pub node: usize,
    /// Jitter sigma amplification; > 1 near the RAPL floor (straggler lottery).
    pub sigma_scale: f64,
    /// Work stretch factor (an injected straggler fault; the time-shared
    /// runtime's sub-domain share).
    pub stretch: f64,
}

/// Reused scratch of the partition walk.
#[derive(Default)]
pub(crate) struct Walk {
    /// The partition's node ids and work stretches, in `ctx` order.
    nodes: Vec<usize>,
    stretch: Vec<f64>,
    /// Phase jitters, phase-major: phase `p` of the partition's `i`-th
    /// node at `p * nodes + i`.
    jitter: Vec<f64>,
    pub memo: OpMemo,
    /// Node-phases with a cap change pending after their start: the ones
    /// split where the change lands, if it lands inside.
    pub late_phases: u64,
}

/// How the runtime advances a partition; tests substitute the node-major
/// reference walk.
pub(crate) type Advance = fn(
    &mut Cluster,
    &MachineConfig,
    &[NodeCtx],
    &[Work],
    SimTime,
    &mut Walk,
    &mut Vec<(usize, SimTime)>,
);

/// Advance every node in `ctx` (already filtered to survivors, in
/// ascending node order) from `t0` through `phases`, appending `(node,
/// arrival)` pairs to `arrivals` in node order.
pub(crate) fn advance_partition(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    ctx: &[NodeCtx],
    phases: &[Work],
    t0: SimTime,
    walk: &mut Walk,
    arrivals: &mut Vec<(usize, SimTime)>,
) {
    let Walk { nodes, stretch, jitter, memo, late_phases } = walk;
    let n = ctx.len();
    nodes.clear();
    nodes.extend(ctx.iter().map(|c| c.node));
    stretch.clear();
    stretch.extend(ctx.iter().map(|c| c.stretch));
    // Exactly what a draw returns where there is none, without the call.
    jitter.clear();
    jitter.resize(n * phases.len(), 1.0);
    let noise = cluster.noise_mut();
    for (i, c) in ctx.iter().enumerate() {
        if noise.draws_phase_jitter(c.sigma_scale) {
            for p in 0..phases.len() {
                jitter[p * n + i] = noise.phase_jitter_scaled(c.sigma_scale);
            }
        }
    }
    *late_phases += cluster.walk(machine, nodes, t0, phases, stretch, jitter, memo, arrivals);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::low_cap_jitter_scale;
    use des::{Rng, SimDuration};
    use theta_sim::{CapMode, NoiseSeed, NoiseSigmas, PhaseKind, CLIFF_START_W};

    /// Node `c` walked alone from `t0` through `phases`, its jitters drawn
    /// first, phase by phase: a one-node `Cluster::walk`, with a memo of
    /// its own.
    fn walk_alone(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        c: &NodeCtx,
        phases: &[Work],
        t0: SimTime,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        let noise = cluster.noise_mut();
        let jitter: Vec<f64> =
            phases.iter().map(|_| noise.phase_jitter_scaled(c.sigma_scale)).collect();
        let mut memo = OpMemo::default();
        cluster.walk(machine, &[c.node], t0, phases, &[c.stretch], &jitter, &mut memo, arrivals);
    }

    /// The node-major reference the walk is held to: each node in turn
    /// draws its jitters and walks alone.
    pub(crate) fn advance_reference(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        ctx: &[NodeCtx],
        phases: &[Work],
        t0: SimTime,
        _walk: &mut Walk,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        for c in ctx {
            walk_alone(cluster, machine, c, phases, t0, arrivals);
        }
    }

    /// [`walk_alone`], observed: returns the bounds of its phases, phase
    /// `p` running over `[bounds[p], bounds[p + 1])`, read from the phase
    /// spans of a tracer attached for this walk alone (a phase with no
    /// work has no span: it starts and ends where the one before ended).
    /// For a runtime without a tracer: it is detached again afterwards.
    fn walk_alone_observed(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        c: &NodeCtx,
        phases: &[Work],
        t0: SimTime,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) -> Vec<SimTime> {
        let tracer = obs::Tracer::enabled();
        cluster.set_tracer(&tracer);
        walk_alone(cluster, machine, c, phases, t0, arrivals);
        cluster.flush_trace();
        cluster.set_tracer(&obs::Tracer::off());
        let mut spans = tracer.events().into_iter().map(|e| match e.ev {
            obs::Event::Phase { node, start_ns, end_ns, .. } if node == c.node => {
                (start_ns, end_ns)
            }
            ev => panic!("node {}'s walk alone traced {ev:?}: is a tracer attached?", c.node),
        });
        let mut bounds = vec![t0];
        for w in phases {
            let start = bounds[bounds.len() - 1];
            let end = if w.ref_secs * c.stretch > 0.0 {
                let (from, to) = spans.next().expect("a span per phase with work");
                assert_eq!(from, start.as_nanos(), "node {}'s phases run back to back", c.node);
                SimTime::from_nanos(to)
            } else {
                start
            };
            bounds.push(end);
        }
        assert!(spans.next().is_none(), "a span per phase with work");
        bounds
    }

    /// [`advance_reference`] that also counts, into
    /// `walk.memo.evaluations`, the distinct `(phase, cap bits)` pairs its
    /// segments meet: what the memoized walk should evaluate.
    pub(crate) fn advance_counting_pairs(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        ctx: &[NodeCtx],
        phases: &[Work],
        t0: SimTime,
        walk: &mut Walk,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        let mut pairs = std::collections::BTreeSet::new();
        for c in ctx {
            // The cap in force at t0, and the change pending after it.
            let first = cluster.enforced_at(c.node, t0);
            let change = cluster.next_change_after(c.node, t0);
            let next = change.map_or(first, |at| cluster.enforced_at(c.node, at));
            let bounds = walk_alone_observed(cluster, machine, c, phases, t0, arrivals);
            for (p, &w) in phases.iter().enumerate() {
                if w.ref_secs * c.stretch > 0.0 {
                    // The cap at the phase's start, and the new one if the
                    // change lands strictly inside the phase.
                    let (start, end) = (bounds[p], bounds[p + 1]);
                    let landed = change.is_some_and(|at| at <= start);
                    pairs.insert((p, if landed { next } else { first }.to_bits()));
                    if change.is_some_and(|at| start < at && at < end) {
                        pairs.insert((p, next.to_bits()));
                    }
                }
            }
        }
        walk.memo.evaluations += pairs.len() as u64;
    }

    /// [`advance_reference`] that also counts, into `walk.late_phases`,
    /// the node-phases with a cap change pending after their start: the
    /// change read before the node walks, each phase's start read from
    /// its walk's spans.
    pub(crate) fn advance_counting_late(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        ctx: &[NodeCtx],
        phases: &[Work],
        t0: SimTime,
        walk: &mut Walk,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        for c in ctx {
            let change = cluster.next_change_after(c.node, t0);
            let bounds = walk_alone_observed(cluster, machine, c, phases, t0, arrivals);
            let starts = &bounds[..phases.len()];
            let late = starts.iter().filter(|&&start| change.is_some_and(|at| start < at));
            walk.late_phases += late.count() as u64;
        }
    }

    /// The hand-picked scenarios: eight nodes in one partition, traced.
    #[test]
    fn one_walk_matches_the_node_major_reference() {
        let quiet = NoiseSigmas::zero();
        let high = vec![110.0; 8];
        let low = vec![CLIFF_START_W - 3.0; 8];
        let mixed: Vec<f64> =
            (0..8).map(|n| if n % 2 == 0 { 110.0 } else { CLIFF_START_W - 3.0 }).collect();
        let case = |sigmas, caps: &Vec<f64>| Case {
            nodes: 8,
            split: 8,
            mode: CapMode::Long,
            sigmas,
            caps: caps.clone(),
            intervals: 6,
            straggler: None,
            stuck: None,
            delayed: None,
            crashed: None,
            traced: true,
            seed: 7,
        };
        let cases = [
            // All quiet; every node below the cliff; lottery and quiet mixed.
            case(quiet, &high),
            case(quiet, &low),
            case(quiet, &mixed),
            Case { straggler: Some((1, 1.7, 2, 3)), ..case(quiet, &high) },
            Case { stuck: Some((2, 1)), delayed: Some((3, 3, 2.0e-3)), ..case(quiet, &high) },
            Case { crashed: Some((0, 2)), ..case(quiet, &high) },
            case(NoiseSigmas::for_mode(CapMode::Long), &high),
            // Phase sigma 0, measure sigma > 0.
            case(NoiseSigmas { measure: 0.01, ..quiet }, &high),
        ];
        for c in &cases {
            run_case(c);
        }
    }

    /// One generated partition scenario: everything the sweep varies.
    #[derive(Debug, Clone)]
    struct Case {
        nodes: usize,
        /// Nodes `[0, split)` are the first partition, `[split, nodes)` the
        /// second (either may be empty).
        split: usize,
        mode: CapMode,
        sigmas: NoiseSigmas,
        /// Initial cap per node; each interval's request adds that
        /// interval's shift to it.
        caps: Vec<f64>,
        intervals: u64,
        /// `(node, factor, first, last)`: work stretched on intervals
        /// `first..=last`.
        straggler: Option<(usize, f64, u64, u64)>,
        /// `(node, interval)`: the node's RAPL ignores its next request.
        stuck: Option<(usize, u64)>,
        /// `(node, interval, extra s)`: the node's next request lands late.
        delayed: Option<(usize, u64, f64)>,
        /// `(node, interval)`: the node leaves its partition from then on.
        crashed: Option<(usize, u64)>,
        traced: bool,
        /// Seeds the noise model, the phase lists, cap shifts and overheads.
        seed: u64,
    }

    impl Case {
        fn draw(rng: &mut Rng) -> Case {
            let nodes = 1 + rng.next_below(64) as usize;
            let split = rng.next_below(nodes as u64 + 1) as usize;
            let mode =
                [CapMode::None, CapMode::Long, CapMode::LongShort][rng.next_below(3) as usize];
            let base = NoiseSigmas::for_mode(mode);
            let sigmas = match rng.next_below(3) {
                0 => NoiseSigmas::zero(),
                1 => base,
                _ => NoiseSigmas { phase: 8.0 * base.phase, measure: 4.0 * base.measure, ..base },
            };
            let caps = match rng.next_below(4) {
                0 => vec![110.0; nodes],
                1 => vec![rng.uniform(98.0, CLIFF_START_W); nodes],
                2 => {
                    let classes = [110.0, 125.0, CLIFF_START_W - 3.0, 98.0];
                    (0..nodes).map(|_| classes[rng.next_below(4) as usize]).collect()
                }
                _ => (0..nodes).map(|_| rng.uniform(98.0, 140.0)).collect(),
            };
            let intervals = 3 + rng.next_below(6);
            let node = |rng: &mut Rng| rng.next_below(nodes as u64) as usize;
            let straggler = (rng.next_below(3) == 0).then(|| {
                let first = rng.next_below(intervals);
                (node(rng), rng.uniform(1.1, 2.5), first, first + rng.next_below(3))
            });
            let stuck = (rng.next_below(3) == 0).then(|| (node(rng), rng.next_below(intervals)));
            let delayed = (rng.next_below(3) == 0)
                .then(|| (node(rng), rng.next_below(intervals), rng.uniform(1.0e-3, 3.0e-2)));
            let crashed =
                (rng.next_below(3) == 0).then(|| (node(rng), 1 + rng.next_below(intervals)));
            let traced = rng.next_below(2) == 0;
            let seed = rng.next_u64();
            Case {
                nodes,
                split,
                mode,
                sigmas,
                caps,
                intervals,
                straggler,
                stuck,
                delayed,
                crashed,
                traced,
                seed,
            }
        }

        fn cluster(&self) -> Cluster {
            let machine = MachineConfig::theta();
            let seed = NoiseSeed::new(self.seed, 1);
            Cluster::with_caps_sigmas(machine, &self.caps, self.mode, self.sigmas, seed)
        }
    }

    /// The one walk and the reference, as the runtime calls them.
    fn walk(
        one: bool,
        cluster: &mut Cluster,
        ctx: &[NodeCtx],
        phases: &[Work],
        (t0, scratch): (SimTime, &mut Walk),
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        let advance: Advance = if one { advance_partition } else { advance_reference };
        advance(cluster, &MachineConfig::theta(), ctx, phases, t0, scratch, arrivals);
    }

    /// Everything observable about `cluster` at the close of an interval
    /// that ran `[t0, rendezvous)` and arrived at `arrivals`, each node
    /// stepped alone: the bits of each node's measured active window
    /// before and after the allocation wait, each read-back cap, every
    /// node's `[t0, ·)`,
    /// `[since, ·)` and `[ZERO, ·)` energy and mean power at `t_end`, and
    /// the next draw of both noise streams.
    fn close_interval(
        cluster: &mut Cluster,
        case: &Case,
        arrivals: &[(usize, SimTime)],
        (t0, rendezvous, t_end, since): (SimTime, SimTime, SimTime, SimTime),
        shift: f64,
    ) -> Vec<u64> {
        let machine = MachineConfig::theta();
        let active_end = |arrival: SimTime| arrival.max(t0 + SimDuration::from_nanos(1));
        let mut seen = Vec::new();
        for &(node, arrival) in arrivals {
            cluster.request_caps_and_wait(&machine, arrival, rendezvous, &[node], None);
        }
        for &(node, arrival) in arrivals {
            let true_w = cluster.mean_power(node, t0, active_end(arrival));
            let noisy_w = cluster.noise_mut().noisy_power(true_w);
            seen.extend([true_w.to_bits(), noisy_w.to_bits()]);
        }
        for &(node, _) in arrivals {
            let target = [case.caps[node] + shift];
            cluster.request_caps_and_wait(&machine, rendezvous, t_end, &[node], Some(&target));
            seen.push(cluster.requested_cap(node).to_bits());
        }
        for &(node, arrival) in arrivals {
            seen.push(cluster.true_total_power(&[node], t0, active_end(arrival)).to_bits());
        }
        for node in 0..case.nodes {
            for from in [t0, since, SimTime::ZERO] {
                seen.push(cluster.total_energy(&[node], from, t_end).to_bits());
                seen.push(cluster.true_total_power(&[node], from, t_end).to_bits());
            }
        }
        seen.push(cluster.noise_mut().phase_jitter_scaled(2.0).to_bits());
        seen.push(cluster.noise_mut().noisy_power(100.0).to_bits());
        seen
    }

    /// Walk `case` through both paths interval by interval; panics with
    /// the scenario (seed included) at the first difference.
    fn run_case(case: &Case) {
        let (mut a, mut b) = (case.cluster(), case.cluster());
        let mut scratch = Walk::default();
        let mut rng = Rng::seed_from_u64(case.seed);
        let kinds = PhaseKind::all_productive();
        let (mut t0, mut since) = (SimTime::ZERO, SimTime::ZERO);
        for k in 0..case.intervals {
            let tracers = [obs::Tracer::enabled(), obs::Tracer::enabled()];
            if case.traced {
                a.set_tracer(&tracers[0]);
                b.set_tracer(&tracers[1]);
            }
            for c in [&mut a, &mut b] {
                if let Some((n, _)) = case.stuck.filter(|&(_, at)| at == k) {
                    c.node_mut(n).inject_ignore_requests(1);
                }
                if let Some((n, _, extra_s)) = case.delayed.filter(|&(_, at, _)| at == k) {
                    c.node_mut(n).inject_extra_latency(extra_s);
                }
            }
            let (mut arr_a, mut arr_b) = (Vec::new(), Vec::new());
            for part in [0..case.split, case.split..case.nodes] {
                let ctx: Vec<NodeCtx> = part
                    .filter(|&n| !matches!(case.crashed, Some((c, at)) if c == n && k >= at))
                    .map(|node| NodeCtx {
                        node,
                        sigma_scale: low_cap_jitter_scale(&a, node),
                        stretch: match case.straggler {
                            Some((n, f, first, last))
                                if n == node && (first..=last).contains(&k) =>
                            {
                                f
                            }
                            _ => 1.0,
                        },
                    })
                    .collect();
                for c in &ctx {
                    let scale_b = low_cap_jitter_scale(&b, c.node);
                    assert_eq!(
                        c.sigma_scale.to_bits(),
                        scale_b.to_bits(),
                        "{case:?}: interval {k}"
                    );
                }
                let phases: Vec<Work> = (0..rng.next_below(6))
                    .map(|_| {
                        let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
                        let ref_secs = match rng.next_below(8) {
                            0 => 0.0,
                            1 => 1.0e-12,
                            _ => rng.uniform(1.0e-4, 5.0e-2),
                        };
                        Work::scaled(kind, ref_secs, rng.uniform(0.6, 1.0))
                    })
                    .collect();
                if ctx.is_empty() {
                    continue;
                }
                walk(true, &mut a, &ctx, &phases, (t0, &mut scratch), &mut arr_a);
                walk(false, &mut b, &ctx, &phases, (t0, &mut scratch), &mut arr_b);
            }
            assert_eq!(arr_a, arr_b, "{case:?}: interval {k}: arrivals");
            let rendezvous = arr_a.iter().map(|&(_, t)| t).max().unwrap_or(t0);
            let overhead = match rng.next_below(4) {
                0 => SimDuration::ZERO,
                _ => SimDuration::from_nanos(rng.next_below(200_000)),
            };
            let t_end = rendezvous + overhead;
            let shift = if rng.next_below(4) == 0 { 0.0 } else { rng.uniform(-6.0, 6.0) };
            let times = (t0, rendezvous, t_end, since);
            let seen_a = close_interval(&mut a, case, &arr_a, times, shift);
            let seen_b = close_interval(&mut b, case, &arr_a, times, shift);
            assert_eq!(seen_a, seen_b, "{case:?}: interval {k}: windows, caps or draws");
            a.flush_trace();
            b.flush_trace();
            let (trace_a, trace_b) = (tracers[0].to_jsonl(), tracers[1].to_jsonl());
            assert_eq!(trace_a, trace_b, "{case:?}: interval {k}: spans");
            if rng.next_below(2) == 0 {
                a.compact_history(t_end);
                b.compact_history(t_end);
                since = t_end;
            }
            t0 = t_end;
        }
    }

    /// The walk-equivalence sweep: generated partitions of 1–64 nodes
    /// under every cap mode, zero, default and amplified noise, uniform
    /// and mixed caps (some below the power cliff), stragglers, stuck and
    /// delayed RAPL, mid-run crashes, zero-length phases and intervals,
    /// tracer on and off — each checked against the node-major
    /// reference after every interval.
    #[test]
    fn generated_partitions_walk_like_the_reference() {
        let mut rng = Rng::seed_from_u64(0x5EE5_A200);
        for _ in 0..256 {
            run_case(&Case::draw(&mut rng));
        }
    }
}
