//! A partition's walk through one interval: the phase-jitter draw, then
//! one column pass per phase (`pass.rs`).
//!
//! The draw owns the rule that run-to-run variability rises near the RAPL
//! floor (paper §VII-D): a node's sigma scale comes from its requested cap
//! (`power::jitter_scale`). Once the jitters are drawn, a node's step reads
//! and writes only its own columns and span buffer, so the order in which
//! nodes step is unobservable.

use crate::cluster::Cluster;
use crate::config::MachineConfig;
use crate::phase::Work;
use crate::power::{jitter_scale, OpMemo};
use des::SimTime;

/// A partition walk's reused scratch: the jitter column and each phase's
/// operating points, plus two counts over every walk it served.
#[derive(Debug, Default)]
pub struct Walk {
    /// Phase jitters, phase-major: phase `p` of the walk's `i`-th node at
    /// `p * nodes.len() + i`.
    jitter: Vec<f64>,
    /// Each phase's operating points, reset for it.
    memo: OpMemo,
    /// Operating points evaluated: one per distinct cap (by bit pattern) a
    /// phase meets.
    pub evaluations: u64,
    /// Node-phases with a cap change pending after their start: the ones
    /// split where the change lands, if it lands inside.
    pub late_phases: u64,
}

impl Cluster {
    /// Walk every node of `nodes` (ascending ids) from `t0` through
    /// `phases`: open its interval, run each phase in turn (node
    /// `nodes[i]`'s work stretched by `stretch[i]`, left untouched at
    /// exactly 1.0), close its active window and append its arrival, no
    /// earlier than `t0`, to `arrivals`, parallel to `nodes`.
    ///
    /// Every node's phase jitters are drawn first, node by node and phase
    /// by phase, each at the sigma scale its requested cap sets (above 1
    /// below [`CLIFF_START_W`](crate::CLIFF_START_W)): walking each node
    /// alone, in id order, draws the same values and leaves the jitter
    /// stream where this walk leaves it. Each phase's operating points
    /// are evaluated once per distinct cap it meets, the evaluations
    /// counted into `scratch.evaluations`, and its node-phases with a cap
    /// change pending after their start into `scratch.late_phases`.
    #[allow(clippy::too_many_arguments)]
    pub fn walk(
        &mut self,
        m: &MachineConfig,
        nodes: &[usize],
        stretch: &[f64],
        t0: SimTime,
        phases: &[Work],
        scratch: &mut Walk,
        arrivals: &mut Vec<SimTime>,
    ) {
        let n = nodes.len();
        assert_eq!(stretch.len(), n);
        let Walk { jitter, memo, evaluations, late_phases } = scratch;
        let scales = nodes.iter().map(|&k| jitter_scale(&self.config, self.rapl.requested_w[k]));
        self.noise.draw_phase_jitters(scales, phases.len(), jitter);
        self.begin_intervals(nodes, t0);
        for (p, &work) in phases.iter().enumerate() {
            memo.reset(m, work);
            let (first, jitter) = ((p == 0).then_some(t0), &jitter[p * n..(p + 1) * n]);
            *late_phases += self.run_phase_columns(m, nodes, first, work, stretch, jitter, memo);
        }
        *evaluations += std::mem::take(&mut memo.evaluations);
        self.end_walks(nodes, t0, arrivals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CapMode, NoiseSeed, NoiseSigmas, PhaseKind, CLIFF_START_W};
    use des::{Rng, SimDuration};

    /// The draw contract: a walk of many lanes draws what walking each
    /// lane alone, in id order, draws, and leaves the jitter stream where
    /// those walks leave it; a lane with no phase sigma draws nothing at
    /// or above the cliff and the straggler lottery below it.
    #[test]
    fn the_walk_draws_what_walking_each_lane_alone_draws() {
        let m = MachineConfig::theta();
        let kinds = PhaseKind::all_productive();
        let phases: Vec<Work> =
            (0..4).map(|p| Work::scaled(kinds[p % kinds.len()], 1.0e-2, 0.9)).collect();
        let noise = |c: &Cluster| format!("{:?}", c.noise);
        let cluster = |caps: &[f64], sigmas| {
            Cluster::with_caps_sigmas(m.clone(), caps, CapMode::Long, sigmas, NoiseSeed::new(5, 2))
        };
        let walk = |c: &mut Cluster, nodes: &[usize]| {
            let (mut scratch, mut arrivals) = (Walk::default(), Vec::new());
            let stretch = vec![1.0; nodes.len()];
            c.walk(&m, nodes, &stretch, SimTime::ZERO, &phases, &mut scratch, &mut arrivals);
            arrivals
        };

        // Noisy lanes above and below the cliff, some left out.
        let caps: Vec<f64> = (0..24).map(|k| [110.0, 99.0, CLIFF_START_W, 140.0][k % 4]).collect();
        let nodes: Vec<usize> = (0..24).filter(|k| k % 5 != 3).collect();
        let sigmas = NoiseSigmas::for_mode(CapMode::Long);
        let (mut one, mut alone) = (cluster(&caps, sigmas), cluster(&caps, sigmas));
        let arrivals = walk(&mut one, &nodes);
        let each: Vec<SimTime> = nodes.iter().flat_map(|&k| walk(&mut alone, &[k])).collect();
        assert_eq!(arrivals, each, "arrivals");
        assert_eq!(format!("{:?}", one.nodes), format!("{:?}", alone.nodes), "node columns");
        assert_eq!(noise(&one), noise(&alone), "the jitter stream");

        // Quiet lanes: nothing drawn at or above the cliff.
        let quiet = NoiseSigmas::zero();
        let mut c = cluster(&[CLIFF_START_W, 110.0, 215.0], quiet);
        let before = noise(&c);
        walk(&mut c, &[0, 1, 2]);
        assert_eq!(noise(&c), before, "a quiet lane at or above the cliff drew");

        // A quiet lane below it draws the lottery, phase by phase, at the
        // scale its cap sets.
        let cap = CLIFF_START_W - 1.0;
        let mut c = cluster(&[110.0, cap], quiet);
        let (before, mut expected) = (noise(&c), c.noise.clone());
        walk(&mut c, &[0, 1]);
        let scale = jitter_scale(&m, cap);
        assert!(scale > 1.0);
        for _ in &phases {
            expected.phase_jitter_scaled(scale);
        }
        assert_ne!(noise(&c), before, "a quiet lane below the cliff drew nothing");
        assert_eq!(noise(&c), format!("{expected:?}"), "the lottery's draws");
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

    /// The one walk of `nodes`, or the reference: each node walked alone,
    /// in id order, with a scratch of its own.
    fn walk(
        one: bool,
        cluster: &mut Cluster,
        (nodes, stretch): (&[usize], &[f64]),
        phases: &[Work],
        (t0, scratch): (SimTime, &mut Walk),
        arrivals: &mut Vec<SimTime>,
    ) {
        let m = MachineConfig::theta();
        if one {
            cluster.walk(&m, nodes, stretch, t0, phases, scratch, arrivals);
        } else {
            for (&node, &stretch) in nodes.iter().zip(stretch) {
                let alone = &mut Walk::default();
                cluster.walk(&m, &[node], &[stretch], t0, phases, alone, arrivals);
            }
        }
    }

    /// Everything observable about `cluster` at the close of an interval
    /// that ran `[t0, rendezvous)`, node `nodes[i]` arriving at
    /// `arrivals[i]`, each node
    /// stepped alone: the bits of each node's measured active window
    /// before and after the allocation wait, each read-back cap, every
    /// node's `[t0, ·)`,
    /// `[since, ·)` and `[ZERO, ·)` energy and mean power at `t_end`, and
    /// the next draw of both noise streams.
    fn close_interval(
        cluster: &mut Cluster,
        case: &Case,
        (nodes, arrivals): (&[usize], &[SimTime]),
        (t0, rendezvous, t_end, since): (SimTime, SimTime, SimTime, SimTime),
        shift: f64,
    ) -> Vec<u64> {
        let machine = MachineConfig::theta();
        let active_end = |arrival: SimTime| arrival.max(t0 + SimDuration::from_nanos(1));
        let mut seen = Vec::new();
        let arrived = || nodes.iter().copied().zip(arrivals.iter().copied());
        for (node, arrival) in arrived() {
            cluster.request_caps_and_wait(&machine, arrival, rendezvous, &[node], None);
        }
        for (node, arrival) in arrived() {
            let true_w = cluster.mean_power(node, t0, active_end(arrival));
            let noisy_w = cluster.noise_mut().noisy_power(true_w);
            seen.extend([true_w.to_bits(), noisy_w.to_bits()]);
        }
        for &node in nodes {
            let target = [case.caps[node] + shift];
            cluster.request_caps_and_wait(&machine, rendezvous, t_end, &[node], Some(&target));
            seen.push(cluster.requested_cap(node).to_bits());
        }
        for (node, arrival) in arrived() {
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
            let (mut ids, mut arr_a, mut arr_b) = (Vec::new(), Vec::new(), Vec::new());
            for part in [0..case.split, case.split..case.nodes] {
                let nodes: Vec<usize> = part
                    .filter(|&n| !matches!(case.crashed, Some((c, at)) if c == n && k >= at))
                    .collect();
                let stretch: Vec<f64> = nodes
                    .iter()
                    .map(|&node| match case.straggler {
                        Some((n, f, first, last)) if n == node && (first..=last).contains(&k) => f,
                        _ => 1.0,
                    })
                    .collect();
                for &node in &nodes {
                    let scale = |c: &Cluster| jitter_scale(&c.config, c.requested_cap(node));
                    assert_eq!(scale(&a).to_bits(), scale(&b).to_bits(), "{case:?}: interval {k}");
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
                if nodes.is_empty() {
                    continue;
                }
                let lanes = (&nodes[..], &stretch[..]);
                walk(true, &mut a, lanes, &phases, (t0, &mut scratch), &mut arr_a);
                walk(false, &mut b, lanes, &phases, (t0, &mut scratch), &mut arr_b);
                ids.extend(nodes);
            }
            assert_eq!(arr_a, arr_b, "{case:?}: interval {k}: arrivals");
            let rendezvous = arr_a.iter().copied().max().unwrap_or(t0);
            let overhead = match rng.next_below(4) {
                0 => SimDuration::ZERO,
                _ => SimDuration::from_nanos(rng.next_below(200_000)),
            };
            let t_end = rendezvous + overhead;
            let shift = if rng.next_below(4) == 0 { 0.0 } else { rng.uniform(-6.0, 6.0) };
            let times = (t0, rendezvous, t_end, since);
            let seen_a = close_interval(&mut a, case, (&ids, &arr_a), times, shift);
            let seen_b = close_interval(&mut b, case, (&ids, &arr_a), times, shift);
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
