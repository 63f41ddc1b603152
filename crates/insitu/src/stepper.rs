//! The cluster stepping core: how one partition's nodes advance through a
//! sync interval's phase list.
//!
//! One pass in node order. A node whose walk draws randomness (noisy
//! phases, or the straggler lottery below the power cliff) walks its
//! phases, consuming the shared jitter stream in node order. A node that
//! draws nothing evolves as a pure function of its state, so the first
//! node in each exact state walks and every later one adopts that walk by
//! copy. With every node drawing, or every state unique, this is the plain
//! node-major walk. Adoption changes no byte because:
//!
//! * an adopting node consumes **zero** randomness (the noise model's
//!   zero-draw fast path), so the drawing nodes around it find the stream
//!   exactly where a full walk would have left it;
//! * `Node::run_phase` touches only its own node and spans are flushed per
//!   node, so the order in which independent nodes walk is unobservable;
//! * replicas take the representative's RAPL domain and draw segments by
//!   copy, not by replay: `request_cap`'s epsilon no-op check makes
//!   recomputation divergent, copying makes it exact.

use des::SimTime;
use std::collections::BTreeMap;
use theta_sim::{Cluster, MachineConfig, NodeHistoryMark, NodeStateKey, Work};

/// Per-node inputs for one partition's advance.
pub(crate) struct NodeCtx {
    pub node: usize,
    /// Jitter sigma amplification; > 1 near the RAPL floor (straggler lottery).
    pub sigma_scale: f64,
    /// Work stretch factor from an injected straggler fault.
    pub stretch: f64,
}

/// The walks registered in one advance, by (stretch bits, exact node state):
/// the representative, its buffer marks before it walked, and its arrival.
pub(crate) type Reps = BTreeMap<(u64, NodeStateKey), (usize, NodeHistoryMark, SimTime)>;

/// How the runtime advances a partition; tests substitute the node-major
/// reference walk.
pub(crate) type Advance = fn(
    &mut Cluster,
    &MachineConfig,
    &[NodeCtx],
    &[Work],
    SimTime,
    &mut Reps,
    &mut Vec<(usize, SimTime)>,
);

/// Advance every node in `ctx` (already filtered to survivors, in node
/// order) from `t0` through `phases`, appending `(node, arrival)` pairs to
/// `arrivals` in node order. `reps` is scratch.
pub(crate) fn advance_partition(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    ctx: &[NodeCtx],
    phases: &[Work],
    t0: SimTime,
    reps: &mut Reps,
    arrivals: &mut Vec<(usize, SimTime)>,
) {
    reps.clear();
    for c in ctx {
        // A walk that draws nothing is a function of this key alone.
        let key = (!cluster.noise().draws_phase_jitter(c.sigma_scale))
            .then(|| (c.stretch.to_bits(), cluster.node(c.node).state_key()));
        if let Some(&(rep, mark, arrival)) = key.as_ref().and_then(|k| reps.get(k)) {
            cluster.adopt_walk(rep, c.node, mark);
            arrivals.push((c.node, arrival));
            continue;
        }
        let mark = cluster.node(c.node).history_mark();
        let arrival = walk_node(cluster, machine, c, phases, t0);
        if let Some(key) = key {
            reps.insert(key, (c.node, mark, arrival));
        }
        arrivals.push((c.node, arrival));
    }
}

/// Walk one node through the whole phase list, drawing its jitter.
fn walk_node(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    c: &NodeCtx,
    phases: &[Work],
    t0: SimTime,
) -> SimTime {
    let mut cursor = t0;
    for &(mut w) in phases {
        // An unstretched phase stays untouched, bit for bit.
        if c.stretch != 1.0 {
            w = Work::scaled(w.kind, w.ref_secs * c.stretch, w.demand_scale);
        }
        let jitter = cluster.noise_mut().phase_jitter_scaled(c.sigma_scale);
        cursor = cluster.node_mut(c.node).run_phase(machine, cursor, w, jitter);
    }
    cursor
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runtime::low_cap_jitter_scale;
    use des::{Rng, SimDuration};
    use theta_sim::{CapMode, NoiseSeed, NoiseSigmas, PhaseKind, CLIFF_START_W};

    /// The node-major reference the one walk is held to: every node walks
    /// every phase itself, nobody adopts.
    pub(crate) fn advance_reference(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        ctx: &[NodeCtx],
        phases: &[Work],
        t0: SimTime,
        _reps: &mut Reps,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        for c in ctx {
            arrivals.push((c.node, walk_node(cluster, machine, c, phases, t0)));
        }
    }

    const NODES: usize = 8;
    const INTERVALS: u64 = 6;

    /// One oracle scenario: initial caps, sigmas, and what happens to which
    /// node at which interval.
    struct Scenario {
        name: &'static str,
        sigmas: NoiseSigmas,
        /// Initial cap per node; a node keeps its cap class for the run.
        cap0: fn(usize) -> f64,
        /// `(node, factor)`: the node's work is stretched on intervals 2–3.
        straggler: Option<(usize, f64)>,
        /// The node's RAPL ignores the cap request of interval 1.
        stuck: Option<usize>,
        /// The node's cap request of interval 3 lands 2 ms late.
        delayed: Option<usize>,
        /// The node drops out of `ctx` from interval 2 on.
        crashed: Option<usize>,
        /// Whether some node must have adopted a walk (a vacuity guard).
        adopts: bool,
    }

    fn scenario(name: &'static str, sigmas: NoiseSigmas, cap0: fn(usize) -> f64) -> Scenario {
        Scenario {
            name,
            sigmas,
            cap0,
            straggler: None,
            stuck: None,
            delayed: None,
            crashed: None,
            adopts: true,
        }
    }

    fn tracer_and_cluster(s: &Scenario) -> (obs::Tracer, Cluster) {
        let caps: Vec<f64> = (0..NODES).map(s.cap0).collect();
        let machine = MachineConfig::theta();
        let mut cluster = Cluster::with_caps_sigmas(
            machine,
            &caps,
            CapMode::Long,
            s.sigmas,
            NoiseSeed::new(7, 1),
        );
        let tracer = obs::Tracer::enabled();
        cluster.set_tracer(&tracer);
        (tracer, cluster)
    }

    /// Drive the one walk and the reference side by side on identically
    /// built clusters through the runtime's interval shape — advance, wait
    /// at the rendezvous, measure, re-request caps, wait out the overhead,
    /// compact — and compare everything observable after every interval.
    /// Returns how many walks were adopted.
    fn run_oracle(s: &Scenario) -> usize {
        let machine = MachineConfig::theta();
        let (tracer_a, mut a) = tracer_and_cluster(s);
        let (tracer_b, mut b) = tracer_and_cluster(s);
        let mut rng = Rng::seed_from_u64(0x5EE5_A100);
        let mut reps = Reps::new();
        let mut adopted = 0;
        let mut t0 = SimTime::ZERO;
        for k in 0..INTERVALS {
            let ctx: Vec<NodeCtx> = (0..NODES)
                .filter(|&n| !(k >= 2 && s.crashed == Some(n)))
                .map(|node| NodeCtx {
                    node,
                    sigma_scale: low_cap_jitter_scale(&a, node),
                    stretch: match s.straggler {
                        Some((n, f)) if n == node && (2..4).contains(&k) => f,
                        _ => 1.0,
                    },
                })
                .collect();
            let kinds = PhaseKind::all_productive();
            let phases: Vec<Work> = (0..1 + rng.next_below(5))
                .map(|_| {
                    let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
                    Work::new(kind, rng.uniform(1.0e-4, 5.0e-2))
                })
                .collect();

            let (mut arr_a, mut arr_b) = (Vec::new(), Vec::new());
            advance_partition(&mut a, &machine, &ctx, &phases, t0, &mut reps, &mut arr_a);
            let drawing =
                ctx.iter().filter(|c| a.noise().draws_phase_jitter(c.sigma_scale)).count();
            adopted += ctx.len() - drawing - reps.len();
            advance_reference(&mut b, &machine, &ctx, &phases, t0, &mut Reps::new(), &mut arr_b);
            assert_eq!(arr_a, arr_b, "{}: arrivals, interval {k}", s.name);

            let rendezvous = arr_a.iter().map(|&(_, t)| t).max().expect("nodes");
            let t_end = rendezvous + SimDuration::from_secs_f64(50.0e-6);
            let delta = rng.uniform(-2.0, 2.0);
            for cluster in [&mut a, &mut b] {
                for &(node, arrival) in &arr_a {
                    cluster.node_mut(node).wait_until(&machine, arrival, rendezvous);
                }
                if k == 1 {
                    if let Some(n) = s.stuck {
                        cluster.node_mut(n).rapl_mut().inject_ignore_requests(1);
                    }
                }
                if k == 3 {
                    if let Some(n) = s.delayed {
                        cluster.node_mut(n).rapl_mut().inject_extra_latency(2.0e-3);
                    }
                }
                for &(node, _) in &arr_a {
                    let cap = (s.cap0)(node) + delta;
                    cluster.node_mut(node).request_cap(&machine, rendezvous, cap);
                    cluster.node_mut(node).wait_until(&machine, rendezvous, t_end);
                }
            }
            for &(node, arrival) in &arr_a {
                let end = arrival.max(t0 + SimDuration::from_nanos(1));
                let (true_a, noisy_a) = a.measure_node_power(node, t0, end);
                let (true_b, noisy_b) = b.measure_node_power(node, t0, end);
                assert_eq!(true_a.to_bits(), true_b.to_bits(), "{}: true power", s.name);
                assert_eq!(noisy_a.to_bits(), noisy_b.to_bits(), "{}: measured power", s.name);
            }
            if k % 2 == 1 {
                a.compact_history(t_end);
                b.compact_history(t_end);
            }
            for node in 0..NODES {
                let (na, nb) = (a.node(node), b.node(node));
                assert_eq!(na.state_key(), nb.state_key(), "{}: node {node} state", s.name);
                assert_eq!(na.draw_series().times(), nb.draw_series().times());
                let bits = |n: &theta_sim::Node| -> Vec<u64> {
                    n.draw_series().values().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(na), bits(nb), "{}: node {node} draw series", s.name);
                let (ea, eb) = (na.energy(SimTime::ZERO, t_end), nb.energy(SimTime::ZERO, t_end));
                assert_eq!(ea.to_bits(), eb.to_bits(), "{}: node {node} energy", s.name);
            }
            a.flush_trace();
            b.flush_trace();
            assert_eq!(tracer_a.to_jsonl(), tracer_b.to_jsonl(), "{}: spans, interval {k}", s.name);
            t0 = t_end;
        }
        // Both streams stand where the reference left them.
        let (ja, jb) =
            (a.noise_mut().phase_jitter_scaled(2.0), b.noise_mut().phase_jitter_scaled(2.0));
        assert_eq!(ja.to_bits(), jb.to_bits(), "{}: next jitter draw", s.name);
        let (pa, pb) = (a.noise_mut().noisy_power(100.0), b.noise_mut().noisy_power(100.0));
        assert_eq!(pa.to_bits(), pb.to_bits(), "{}: next measurement draw", s.name);
        adopted
    }

    #[test]
    fn one_walk_matches_the_node_major_reference() {
        let quiet = NoiseSigmas::zero();
        let high: fn(usize) -> f64 = |_| 110.0;
        let low: fn(usize) -> f64 = |_| CLIFF_START_W - 3.0;
        let mixed: fn(usize) -> f64 = |n| if n % 2 == 0 { 110.0 } else { CLIFF_START_W - 3.0 };
        let scenarios = [
            scenario("all quiet", quiet, high),
            Scenario { adopts: false, ..scenario("every node below the cliff", quiet, low) },
            scenario("lottery and quiet nodes mixed", quiet, mixed),
            Scenario {
                straggler: Some((1, 1.7)),
                ..scenario("straggler splits a key", quiet, high)
            },
            Scenario {
                stuck: Some(2),
                delayed: Some(3),
                ..scenario("rapl stuck and delayed", quiet, high)
            },
            Scenario { crashed: Some(0), ..scenario("crashed representative", quiet, high) },
            Scenario {
                adopts: false,
                ..scenario("default noise", NoiseSigmas::for_mode(CapMode::Long), high)
            },
            scenario(
                "phase sigma 0, measure sigma > 0",
                NoiseSigmas { measure: 0.01, ..quiet },
                high,
            ),
        ];
        for s in &scenarios {
            let adopted = run_oracle(s);
            assert_eq!(adopted > 0, s.adopts, "{}: {adopted} walks adopted", s.name);
        }
    }
}
