//! The cluster: a set of nodes, stored as columns, plus the machine's noise
//! model.

use crate::config::{CapMode, MachineConfig};
use crate::node::{NodeMut, Nodes};
use crate::noise::{NoiseModel, NoiseSeed, NoiseSigmas};
use crate::phase::{PhaseKind, Work};
use crate::rapl::Rapl;
use des::{PeriodicSampler, SimTime, TimeSeries};

/// A simulated cluster of homogeneous nodes (heterogeneity enters only
/// through the noise model's per-node efficiency).
///
/// Per-node state is one column per field, indexed by node id: the RAPL
/// columns, the simulated clock, the open draw segment and the energy
/// windows. Nothing per node grows with run length; a node's full draw
/// series is kept only after [`Cluster::keep_draw_log`].
#[derive(Debug)]
pub struct Cluster {
    pub(crate) config: MachineConfig,
    /// Every node's RAPL enforcement mode.
    pub(crate) cap_mode: CapMode,
    /// What a node of this machine draws waiting, uncapped.
    pub(crate) wait_demand_w: f64,
    /// Jitter and measurement streams; also holds each node's efficiency.
    pub(crate) noise: NoiseModel,
    pub(crate) rapl: Rapl,
    pub(crate) nodes: Nodes,
    /// Where every node's `since` window starts (see
    /// [`Cluster::compact_history`]).
    pub(crate) since: SimTime,
    /// Sim-time trace sink (off by default; a `None` branch when disabled).
    pub(crate) tracer: obs::Tracer,
    /// Each node's span events (phases, waits, cap requests) since the last
    /// [`Cluster::flush_trace`]: a node owns its emission order.
    pub(crate) spans: Vec<Vec<obs::TraceEvent>>,
    /// Each node's full draw series, empty unless kept.
    pub(crate) log: Vec<TimeSeries>,
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

    /// Like [`Cluster::with_caps`] but with explicit noise sigmas. Initial
    /// caps are ignored under [`CapMode::None`].
    pub fn with_caps_sigmas(
        config: MachineConfig,
        caps_w: &[f64],
        cap_mode: CapMode,
        sigmas: NoiseSigmas,
        seed: NoiseSeed,
    ) -> Self {
        assert!(!caps_w.is_empty(), "cluster needs at least one node");
        let n = caps_w.len();
        let noise = NoiseModel::with_sigmas(n, sigmas, seed);
        assert!((0..n).all(|k| noise.node_efficiency(k) > 0.0), "efficiency must be positive");
        Cluster {
            wait_demand_w: Work::none(PhaseKind::Wait).demand_w(&config),
            rapl: Rapl::new(&config, cap_mode, caps_w),
            config,
            cap_mode,
            noise,
            nodes: Nodes::new(n),
            since: SimTime::ZERO,
            tracer: obs::Tracer::off(),
            spans: Vec::new(),
            log: Vec::new(),
        }
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
    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.busy_until.len()
    }

    /// True if the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.busy_until.is_empty()
    }

    /// A mutable view of node `id`: phases, waits, cap requests.
    #[inline]
    pub fn node_mut(&mut self, id: usize) -> NodeMut<'_> {
        assert!(id < self.len(), "node {id} out of range");
        NodeMut { cluster: self, id }
    }

    /// The most recently requested (clamped) cap of node `id`, watts: what
    /// a controller reads back as "allocated power".
    #[inline]
    pub fn requested_cap(&self, id: usize) -> f64 {
        self.rapl.requested_w[id]
    }

    /// The cap node `id` enforces at `t`, watts (its pending change
    /// included once due).
    #[inline]
    pub fn enforced_at(&self, id: usize, t: SimTime) -> f64 {
        self.rapl.enforced_at(id, t)
    }

    /// When node `id`'s pending cap change lands, if that is after `t`.
    #[inline]
    pub fn next_change_after(&self, id: usize, t: SimTime) -> Option<SimTime> {
        self.rapl.next_change_after(id, t)
    }

    /// Mutable access to the noise model (jitter/measurement streams).
    #[inline]
    pub fn noise_mut(&mut self) -> &mut NoiseModel {
        &mut self.noise
    }

    /// Keep every node's full draw series from here on (for
    /// [`Cluster::sample_trace`]). Call before any node is stepped.
    pub fn keep_draw_log(&mut self) {
        assert!(
            self.nodes.busy_until.iter().all(|&t| t == SimTime::ZERO),
            "draw log kept after t = 0"
        );
        let mut draw = TimeSeries::new();
        draw.push(SimTime::ZERO, 0.0);
        self.log = vec![draw; self.len()];
    }

    /// Restart every node's `since` window at `at`, the current clock of
    /// every node. Energy is answerable afterwards over windows starting
    /// at `ZERO`, at `at`, or where a node's current interval began.
    pub fn compact_history(&mut self, at: SimTime) {
        self.since = at;
        self.nodes.since_j.fill(0.0);
    }

    /// Heap bytes held by per-node state (memory-bound tests): every
    /// column's `len × size_of`, plus what the span buffers and draw logs
    /// hold.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let spans: usize = self.spans.iter().map(Vec::capacity).sum();
        let log: usize = self.log.iter().map(TimeSeries::len).sum();
        self.rapl.heap_bytes()
            + self.nodes.heap_bytes()
            + self.noise.heap_bytes()
            + self.spans.len() * size_of::<Vec<obs::TraceEvent>>()
            + spans * size_of::<obs::TraceEvent>()
            + self.log.len() * size_of::<TimeSeries>()
            + log * size_of::<(SimTime, f64)>()
    }

    /// Attach a trace sink (pass [`obs::Tracer::off`] to detach). Each
    /// node's span buffer is sized up front for an interval's spans (its
    /// phases, two waits and a cap request), so recording seldom grows it.
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        self.tracer = tracer.clone();
        self.spans.resize_with(self.len(), || Vec::with_capacity(16));
    }

    /// Drain every node's locally buffered span events into the tracer,
    /// in node-id order (so the flushed order is deterministic). The
    /// runtime calls this at every interval close — and once more at run
    /// end — so spans always land before their interval's `sync_end`.
    pub fn flush_trace(&mut self) {
        self.tracer.emit_drain_all(&mut self.spans);
    }

    /// True energy node `id` consumed over `[from, to)`, joules, bit-identical
    /// to integrating its full draw series. Answers windows starting at
    /// `ZERO`, at the last [`Cluster::compact_history`] instant, where the
    /// node's current walk began ([`Cluster::walk`]), or inside its current
    /// draw segment; panics on any other.
    pub(crate) fn energy(&self, id: usize, from: SimTime, to: SimTime) -> f64 {
        self.nodes.read(id, self.since, from, to).expect("no energy window starts there")
    }

    /// True (noise-free) mean power of node `id` over `[from, to)`, watts.
    pub fn mean_power(&self, id: usize, from: SimTime, to: SimTime) -> f64 {
        let dt = to.saturating_since(from).as_secs_f64();
        if dt <= 0.0 {
            return self.nodes.open_w[id];
        }
        self.energy(id, from, to) / dt
    }

    /// True (noise-free) total power drawn by `ids` averaged over
    /// `[from, to)`, watts.
    pub fn true_total_power(&self, ids: &[usize], from: SimTime, to: SimTime) -> f64 {
        ids.iter().map(|&id| self.mean_power(id, from, to)).sum()
    }

    /// Total true energy for `ids` over `[from, to)`, joules.
    pub fn total_energy(&self, ids: &[usize], from: SimTime, to: SimTime) -> f64 {
        ids.iter().map(|&id| self.energy(id, from, to)).sum()
    }

    /// Build a sampled power trace (like the paper's Fig. 1: one sample per
    /// `config.trace_period`) of the summed *measured* power over `ids`,
    /// covering `[from, to)`. Requires [`Cluster::keep_draw_log`].
    pub fn sample_trace(&mut self, ids: &[usize], from: SimTime, to: SimTime) -> TimeSeries {
        let mut sampler = PeriodicSampler::new(from, self.config.trace_period);
        let mut out = TimeSeries::new();
        let period = self.config.trace_period;
        for t in sampler.fire_until(to) {
            // Each sample reports mean power over the preceding period.
            let (w0, w1) = (t, (t + period).min(to));
            let dt = w1.saturating_since(w0).as_secs_f64();
            let mut total = 0.0;
            for &id in ids {
                let log = self.log.get(id).expect("the draw log was not kept");
                let true_w =
                    if dt > 0.0 { log.integrate(w0, w1) / dt } else { self.nodes.open_w[id] };
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
        let mut c = cluster(4);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.node_mut(2).busy_until(), SimTime::ZERO);
    }

    #[test]
    fn request_cap_applies_to_listed_nodes_only() {
        let mut c = cluster(4);
        let m = c.config().clone();
        for id in [0, 1] {
            assert_eq!(c.node_mut(id).request_cap(&m, SimTime::ZERO, 130.0), 130.0);
        }
        // After actuation, enforcement differs between groups.
        let t = SimTime::from_secs_f64(1.0);
        assert_eq!(c.enforced_at(0, t), 130.0);
        assert_eq!(c.enforced_at(3, t), 110.0);
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
            let truth = c.mean_power(id, SimTime::ZERO, to);
            assert_eq!(truth, c.noise_mut().noisy_power(truth));
        }
    }

    #[test]
    fn trace_has_expected_sample_count() {
        let mut c = cluster(1);
        c.keep_draw_log();
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
        let effs: Vec<f64> = (0..c.len()).map(|k| c.noise.node_efficiency(k)).collect();
        let min = effs.iter().cloned().fold(f64::MAX, f64::min);
        let max = effs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "noise model should spread efficiencies");
    }
}
