//! The cluster stepping core: how one partition's nodes advance through a
//! sync interval's phase list.
//!
//! Phase-major over the cluster's node columns. Every node's phase jitters
//! are drawn first, node by node and phase by phase: the order a
//! node-major walk draws them in, so the shared jitter stream ends where
//! that walk leaves it. Then each phase is one loop over the partition in
//! which every node steps its own segments (`NodeMut::run_phase_with`),
//! the phase's operating points evaluated once per distinct enforced cap.
//! A node's step reads and writes only that node's columns and its own
//! span buffer (flushed per node, in id order), so the order in which
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
    /// Phase jitters, node-major: the partition's `i`-th node's phase `p`
    /// at `i * phases + p`.
    jitter: Vec<f64>,
    pub memo: OpMemo,
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

/// Advance every node in `ctx` (already filtered to survivors, in node
/// order) from `t0` through `phases`, appending `(node, arrival)` pairs to
/// `arrivals` in node order.
pub(crate) fn advance_partition(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    ctx: &[NodeCtx],
    phases: &[Work],
    t0: SimTime,
    walk: &mut Walk,
    arrivals: &mut Vec<(usize, SimTime)>,
) {
    let Walk { jitter, memo } = walk;
    jitter.clear();
    for c in ctx {
        cluster.node_mut(c.node).begin_interval(t0);
        let noise = cluster.noise_mut();
        if noise.draws_phase_jitter(c.sigma_scale) {
            jitter.extend(phases.iter().map(|_| noise.phase_jitter_scaled(c.sigma_scale)));
        } else {
            // Exactly what a draw returns here, without the call.
            jitter.extend(phases.iter().map(|_| 1.0));
        }
    }
    for (p, &work) in phases.iter().enumerate() {
        memo.reset(machine, work);
        let jitters = jitter[p..].iter().step_by(phases.len());
        for (c, &jit) in ctx.iter().zip(jitters) {
            let mut node = cluster.node_mut(c.node);
            let start = if p == 0 { t0 } else { node.busy_until() };
            node.run_phase_with(machine, start, stretched(work, c.stretch), jit, Some(memo));
        }
    }
    for c in ctx {
        let mut node = cluster.node_mut(c.node);
        node.end_walk();
        arrivals.push((c.node, node.busy_until().max(t0)));
    }
}

/// `w` stretched by `stretch`; an unstretched phase stays untouched, bit
/// for bit.
fn stretched(w: Work, stretch: f64) -> Work {
    if stretch == 1.0 {
        w
    } else {
        Work::scaled(w.kind, w.ref_secs * stretch, w.demand_scale)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::low_cap_jitter_scale;
    use des::{Rng, SimDuration};
    use theta_sim::{CapMode, NoiseSeed, NoiseSigmas, PhaseKind, CLIFF_START_W};

    /// The node-major reference the walk is held to: each node in turn
    /// draws and runs every phase through the single-node entry.
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
            cluster.node_mut(c.node).begin_interval(t0);
            let mut at = t0;
            for &w in phases {
                let jitter = cluster.noise_mut().phase_jitter_scaled(c.sigma_scale);
                at = cluster.node_mut(c.node).run_phase(
                    machine,
                    at,
                    stretched(w, c.stretch),
                    jitter,
                );
            }
            cluster.node_mut(c.node).end_walk();
            arrivals.push((c.node, at));
        }
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
            cluster.node_mut(c.node).begin_interval(t0);
            let mut at = t0;
            for (p, &w) in phases.iter().enumerate() {
                let jitter = cluster.noise_mut().phase_jitter_scaled(c.sigma_scale);
                let w = stretched(w, c.stretch);
                // The cap in force at the start, and a pending change the
                // phase met if it was consumed (the segment split there).
                let rapl = cluster.rapl(c.node);
                let first = rapl.enforced_at(at);
                let pending = rapl.next_change_after(at).map(|change| rapl.enforced_at(change));
                let start = at;
                at = cluster.node_mut(c.node).run_phase(machine, at, w, jitter);
                if w.ref_secs > 0.0 {
                    pairs.insert((p, first.to_bits()));
                }
                if cluster.rapl(c.node).next_change_after(start).is_none() {
                    pairs.extend(pending.map(|cap| (p, cap.to_bits())));
                }
            }
            cluster.node_mut(c.node).end_walk();
            arrivals.push((c.node, at));
        }
        walk.memo.evaluations += pairs.len() as u64;
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
    /// that ran `[t0, rendezvous)` and arrived at `arrivals`: the bits of
    /// each node's measured active window before and after the
    /// allocation wait, each granted cap, every node's `[t0, ·)`,
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
            cluster.node_mut(node).wait_until(arrival, rendezvous);
        }
        for &(node, arrival) in arrivals {
            let (true_w, noisy_w) = cluster.measure_node_power(node, t0, active_end(arrival));
            seen.extend([true_w.to_bits(), noisy_w.to_bits()]);
        }
        for &(node, _) in arrivals {
            let granted =
                cluster.node_mut(node).request_cap(&machine, rendezvous, case.caps[node] + shift);
            seen.push(granted.to_bits());
            cluster.node_mut(node).wait_until(rendezvous, t_end);
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
                    c.node_mut(n).rapl_mut().inject_ignore_requests(1);
                }
                if let Some((n, _, extra_s)) = case.delayed.filter(|&(_, at, _)| at == k) {
                    c.node_mut(n).rapl_mut().inject_extra_latency(extra_s);
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
