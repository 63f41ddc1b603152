//! The cluster: a set of nodes plus the machine's noise model.

use crate::config::{CapMode, MachineConfig};
use crate::node::Node;
use crate::noise::{NoiseModel, NoiseSeed, NoiseSigmas};
use crate::rapl::RaplDomain;
use des::{PeriodicSampler, SimTime, TimeSeries};

/// A simulated cluster of homogeneous nodes (heterogeneity enters only
/// through the noise model's per-node efficiency).
#[derive(Debug)]
pub struct Cluster {
    config: MachineConfig,
    nodes: Vec<Node>,
    noise: NoiseModel,
    cap_mode: CapMode,
}

impl Cluster {
    /// Build with explicit initial per-node caps (e.g. an unbalanced
    /// starting distribution, paper Fig. 7) and the noise sigmas of
    /// `cap_mode`.
    pub fn with_caps(
        config: MachineConfig,
        caps_w: &[f64],
        cap_mode: CapMode,
        seed: NoiseSeed,
    ) -> Self {
        Self::with_caps_sigmas(config, caps_w, cap_mode, NoiseSigmas::for_mode(cap_mode), seed)
    }

    /// Like [`Cluster::with_caps`] but with explicit noise sigmas. A zero
    /// phase sigma makes node evolution fully deterministic per state, which
    /// is what lets `insitu` have state-identical nodes share one walk.
    /// Initial caps are ignored under [`CapMode::None`].
    pub fn with_caps_sigmas(
        config: MachineConfig,
        caps_w: &[f64],
        cap_mode: CapMode,
        sigmas: NoiseSigmas,
        seed: NoiseSeed,
    ) -> Self {
        assert!(!caps_w.is_empty(), "cluster needs at least one node");
        let noise = NoiseModel::with_sigmas(caps_w.len(), sigmas, seed);
        let nodes = caps_w
            .iter()
            .enumerate()
            .map(|(id, &cap)| {
                let rapl = match cap_mode {
                    CapMode::None => RaplDomain::uncapped(&config),
                    _ => RaplDomain::capped(&config, cap_mode, cap),
                };
                Node::new(id, noise.node_efficiency(id), rapl)
            })
            .collect();
        Cluster { config, nodes, noise, cap_mode }
    }

    /// A deterministic cluster of `n` nodes with zero noise, all capped at
    /// `initial_cap_w` (unit tests).
    pub fn noiseless(
        config: MachineConfig,
        n: usize,
        cap_mode: CapMode,
        initial_cap_w: f64,
    ) -> Self {
        let caps = vec![initial_cap_w; n];
        Self::with_caps_sigmas(config, &caps, cap_mode, NoiseSigmas::zero(), NoiseSeed::new(0, 0))
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Capping mode in force.
    pub fn cap_mode(&self) -> CapMode {
        self.cap_mode
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared node access.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, id: usize) -> &mut Node {
        &mut self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to the noise model (jitter/measurement streams).
    pub fn noise_mut(&mut self) -> &mut NoiseModel {
        &mut self.noise
    }

    /// Shared access to the noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Fan a representative's walk out to a replica node: `to` (whose state
    /// key matched `from`'s when `mark` was taken) adopts everything `from`
    /// recorded past the mark. See [`Node::adopt_walk`].
    pub fn adopt_walk(&mut self, from: usize, to: usize, mark: crate::node::NodeHistoryMark) {
        assert_ne!(from, to);
        let (a, b) = if from < to { (from, to) } else { (to, from) };
        let (lo, hi) = self.nodes.split_at_mut(b);
        let (rep, replica) = if from < to { (&lo[a], &mut hi[0]) } else { (&hi[0], &mut lo[a]) };
        replica.adopt_walk(rep, mark);
    }

    /// Compact every node's draw history up to `before` (bit-exact energy
    /// queries preserved — see [`Node::compact_history`]).
    pub fn compact_history(&mut self, before: SimTime) {
        for node in &mut self.nodes {
            node.compact_history(before);
        }
    }

    /// Total retained draw samples across all nodes (memory-bound tests).
    pub fn history_segments(&self) -> usize {
        self.nodes.iter().map(|n| n.history_len()).sum()
    }

    /// Attach a trace sink to every node (clones share one buffer).
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        for node in &mut self.nodes {
            node.set_tracer(tracer.clone());
        }
    }

    /// Drain every node's locally buffered span events into the tracer,
    /// in node-id order (so the flushed order is deterministic).
    pub fn flush_trace(&mut self) {
        for node in &mut self.nodes {
            node.flush_trace();
        }
    }

    /// Request a per-node cap on every node in `ids` at time `now`.
    /// Returns the minimum clamped value accepted across the nodes — the
    /// well-defined aggregate a controller can rely on (for today's uniform
    /// range clamping every node accepts the same value, so this equals each
    /// node's grant). With no nodes listed, returns what the range clamp
    /// would accept.
    pub fn request_cap(&mut self, now: SimTime, ids: &[usize], per_node_w: f64) -> f64 {
        let Cluster { config, nodes, cap_mode, .. } = self;
        let mut accepted = f64::INFINITY;
        for &id in ids {
            accepted = accepted.min(nodes[id].request_cap(config, now, per_node_w));
        }
        if accepted.is_finite() {
            accepted
        } else if *cap_mode == CapMode::None {
            config.tdp_w
        } else {
            config.clamp_cap(per_node_w)
        }
    }

    /// True (noise-free) total power drawn by `ids` averaged over
    /// `[from, to)`, watts.
    pub fn true_total_power(&self, ids: &[usize], from: SimTime, to: SimTime) -> f64 {
        ids.iter().map(|&id| self.nodes[id].mean_power(from, to)).sum()
    }

    /// One node's mean power over `[from, to)`, watts, as `(true, measured)`:
    /// the noise-free integral and the same reading with one draw of
    /// measurement noise applied — the integral is computed once for both.
    pub fn measure_node_power(&mut self, id: usize, from: SimTime, to: SimTime) -> (f64, f64) {
        let true_w = self.nodes[id].mean_power(from, to);
        (true_w, self.noise.noisy_power(true_w))
    }

    /// Total true energy for `ids` over `[from, to)`, joules.
    pub fn total_energy(&self, ids: &[usize], from: SimTime, to: SimTime) -> f64 {
        ids.iter().map(|&id| self.nodes[id].energy(from, to)).sum()
    }

    /// Build a sampled power trace (like the paper's Fig. 1: one sample per
    /// `config.trace_period`) of the summed *measured* power over `ids`,
    /// covering `[from, to)`.
    pub fn sample_trace(&mut self, ids: &[usize], from: SimTime, to: SimTime) -> TimeSeries {
        let mut sampler = PeriodicSampler::new(from, self.config.trace_period);
        let mut out = TimeSeries::new();
        let period = self.config.trace_period;
        for t in sampler.fire_until(to) {
            // Each sample reports mean power over the preceding period.
            let w0 = t;
            let w1 = t + period;
            let mut total = 0.0;
            for &id in ids {
                let true_w = self.nodes[id].mean_power(w0, w1.min(to));
                total += self.noise.noisy_power(true_w);
            }
            out.push(t, total);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{PhaseKind, Work};

    fn cluster(n: usize) -> Cluster {
        Cluster::noiseless(MachineConfig::theta(), n, CapMode::Long, 110.0)
    }

    #[test]
    fn builds_requested_size() {
        let c = cluster(4);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.node(2).id(), 2);
    }

    #[test]
    fn request_cap_applies_to_listed_nodes_only() {
        let mut c = cluster(4);
        let accepted = c.request_cap(SimTime::ZERO, &[0, 1], 130.0);
        assert_eq!(accepted, 130.0);
        // After actuation, enforcement differs between groups.
        let t = SimTime::from_secs_f64(1.0);
        for id in 0..4 {
            c.node_mut(id).rapl_mut().advance(t);
        }
        assert_eq!(c.node(0).rapl().enforced_at(t), 130.0);
        assert_eq!(c.node(3).rapl().enforced_at(t), 110.0);
    }

    #[test]
    fn total_power_sums_nodes() {
        let mut c = cluster(2);
        let m = c.config().clone();
        let end = SimTime::from_secs_f64(1.0);
        for id in 0..2 {
            c.node_mut(id).run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 1.0), 1.0);
        }
        let total = c.true_total_power(&[0, 1], SimTime::ZERO, end);
        assert!((total - 220.0).abs() < 1e-6, "{total}");
    }

    #[test]
    fn noiseless_measurement_equals_truth() {
        let mut c = cluster(2);
        let m = c.config().clone();
        for id in 0..2 {
            c.node_mut(id).run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 1.0), 1.0);
        }
        let to = SimTime::from_secs_f64(1.0);
        for id in 0..2 {
            let (truth, measured) = c.measure_node_power(id, SimTime::ZERO, to);
            assert_eq!(truth, measured);
        }
    }

    #[test]
    fn trace_has_expected_sample_count() {
        let mut c = cluster(1);
        let m = c.config().clone();
        c.node_mut(0).run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 2.0), 1.0);
        let trace = c.sample_trace(&[0], SimTime::ZERO, SimTime::from_secs_f64(2.0));
        // 200 ms period over 2 s -> 10 samples.
        assert_eq!(trace.len(), 10);
        for (_, w) in trace.iter() {
            assert!((w - 110.0).abs() < 1e-6);
        }
    }

    #[test]
    fn noisy_cluster_efficiencies_vary() {
        let c = Cluster::with_caps(
            MachineConfig::theta(),
            &[110.0; 64],
            CapMode::Long,
            NoiseSeed::new(1, 1),
        );
        let effs: Vec<f64> = c.nodes().iter().map(|n| n.efficiency()).collect();
        let min = effs.iter().cloned().fold(f64::MAX, f64::min);
        let max = effs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "noise model should spread efficiencies");
    }
}
