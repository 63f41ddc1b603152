//! A simulated compute node: executes phases under its RAPL cap, tracks its
//! power draw as a step function over time, and accounts energy.

use crate::config::MachineConfig;
use crate::phase::{PhaseKind, Work};
use crate::power::operating_point;
use crate::rapl::RaplDomain;
use des::{SimTime, TimeSeries};

/// One compute node.
#[derive(Debug, Clone)]
pub struct Node {
    id: usize,
    /// Static efficiency multiplier (silicon/placement lottery), 1.0 nominal.
    efficiency: f64,
    rapl: RaplDomain,
    /// Piecewise-constant power draw: change points only. Old samples are
    /// pruned by [`Node::compact_history`]; their exact integral fold lives
    /// in `pruned_energy_j` so energy queries stay bit-identical.
    draw: TimeSeries,
    /// Exact `integrate(ZERO, ·)` fold prefix over the pruned samples.
    pruned_energy_j: f64,
    /// Queries with `from >= pruned_until` are answered from the retained
    /// samples alone; `from == ZERO` routes through the seeded fold.
    pruned_until: SimTime,
    /// Time up to which this node's activity has been simulated.
    busy_until: SimTime,
    last_draw_w: f64,
    /// Sim-time trace sink (off by default; a `None` branch when disabled).
    tracer: obs::Tracer,
    /// Local scratch for span events (phases, waits, cap requests): the
    /// node owns its emission order, so spans batch here lock-free and
    /// drain into the tracer once per interval via [`Node::flush_trace`].
    span_buf: Vec<obs::TraceEvent>,
}

impl Node {
    /// Create a node with the given RAPL domain and efficiency.
    pub fn new(id: usize, efficiency: f64, rapl: RaplDomain) -> Self {
        assert!(efficiency > 0.0, "efficiency must be positive");
        let mut draw = TimeSeries::new();
        draw.push(SimTime::ZERO, 0.0);
        Node {
            id,
            efficiency,
            rapl,
            draw,
            pruned_energy_j: 0.0,
            pruned_until: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            last_draw_w: 0.0,
            tracer: obs::Tracer::off(),
            span_buf: Vec::new(),
        }
    }

    /// Attach a trace sink (pass [`obs::Tracer::off`] to detach).
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }

    /// Drain locally buffered span events into the tracer (one lock).
    /// The runtime calls this at every interval close — and once more at
    /// run end — so spans always land before their interval's `sync_end`.
    pub fn flush_trace(&mut self) {
        if !self.span_buf.is_empty() {
            self.tracer.emit_drain(&mut self.span_buf);
        }
    }

    /// Node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Static efficiency multiplier.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Mutable access to the RAPL domain (capping interface).
    pub fn rapl_mut(&mut self) -> &mut RaplDomain {
        &mut self.rapl
    }

    /// Request a new RAPL cap, recording the request/grant/enforcement
    /// triple on the trace. Returns the clamped value RAPL accepted.
    pub fn request_cap(&mut self, m: &MachineConfig, now: SimTime, watts: f64) -> f64 {
        let granted = self.rapl.request_cap(m, now, watts);
        if self.tracer.is_enabled() {
            // Actuation latency: when the request is a no-op or the PCU is
            // stuck, enforcement never changes — report the request time.
            let effective = self.rapl.next_change_after(now).unwrap_or(now);
            self.span_buf.push(obs::TraceEvent {
                t: now,
                ev: obs::Event::CapRequest {
                    node: self.id,
                    requested_w: watts,
                    granted_w: granted,
                    effective_ns: effective.as_nanos(),
                },
            });
        }
        granted
    }

    /// Shared access to the RAPL domain.
    pub fn rapl(&self) -> &RaplDomain {
        &self.rapl
    }

    /// Time up to which this node has been scheduled.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    fn record_draw(&mut self, t: SimTime, watts: f64) {
        if (watts - self.last_draw_w).abs() > 1e-9 {
            self.draw.push(t, watts);
            self.last_draw_w = watts;
        }
    }

    /// Execute `work` starting at `start`, honouring any cap change that
    /// lands mid-phase. `jitter` is a per-phase duration multiplier from the
    /// noise model. Returns the completion time.
    ///
    /// Panics in debug builds if `start` precedes previously simulated
    /// activity on this node.
    pub fn run_phase(
        &mut self,
        m: &MachineConfig,
        start: SimTime,
        work: Work,
        jitter: f64,
    ) -> SimTime {
        debug_assert!(start >= self.busy_until, "node {} scheduled into its past", self.id);
        debug_assert!(jitter > 0.0);
        self.rapl.advance(start);
        // Remaining work measured in reference-seconds, inflated by jitter
        // and this node's (in)efficiency.
        let mut remaining = work.ref_secs * jitter / self.efficiency;
        let mut t = start;
        if remaining <= 0.0 {
            self.busy_until = t;
            return t;
        }
        loop {
            let cap = self.rapl.enforced_at(t);
            let op = operating_point(m, work, cap);
            self.record_draw(t, op.draw_w);
            debug_assert!(op.rate > 0.0, "productive phase stalled");
            let need = remaining / op.rate;
            let end = t + des::SimDuration::from_secs_f64(need);
            match self.rapl.next_change_after(t) {
                Some(change) if change < end => {
                    let seg_secs = change.saturating_since(t).as_secs_f64();
                    remaining -= seg_secs * op.rate;
                    t = change;
                    self.rapl.advance(t);
                }
                _ => {
                    t = end;
                    break;
                }
            }
        }
        self.busy_until = t;
        if self.tracer.is_enabled() {
            self.span_buf.push(obs::TraceEvent {
                t: start,
                ev: obs::Event::Phase {
                    node: self.id,
                    kind: work.kind.tag().into(),
                    start_ns: start.as_nanos(),
                    end_ns: t.as_nanos(),
                },
            });
        }
        t
    }

    /// Block at a synchronization point from `from` until `until`, drawing
    /// the machine's wait power (subject to the cap).
    pub fn wait_until(&mut self, m: &MachineConfig, from: SimTime, until: SimTime) {
        debug_assert!(from >= self.busy_until);
        if until <= from {
            self.busy_until = self.busy_until.max(from);
            return;
        }
        self.rapl.advance(from);
        let mut t = from;
        while t < until {
            let cap = self.rapl.enforced_at(t);
            let op = operating_point(m, Work::none(PhaseKind::Wait), cap);
            self.record_draw(t, op.draw_w);
            match self.rapl.next_change_after(t) {
                Some(change) if change < until => {
                    t = change;
                    self.rapl.advance(t);
                }
                _ => t = until,
            }
        }
        self.busy_until = until;
        if self.tracer.is_enabled() {
            self.span_buf.push(obs::TraceEvent {
                t: from,
                ev: obs::Event::Wait {
                    node: self.id,
                    start_ns: from.as_nanos(),
                    end_ns: until.as_nanos(),
                },
            });
        }
    }

    /// True (noise-free) mean power over `[from, to)`, watts.
    pub fn mean_power(&self, from: SimTime, to: SimTime) -> f64 {
        let dt = to.saturating_since(from).as_secs_f64();
        if dt <= 0.0 {
            return self.last_draw_w;
        }
        self.energy(from, to) / dt
    }

    /// True energy consumed over `[from, to)`, joules.
    ///
    /// Bit-identical with or without [`Node::compact_history`]: queries at
    /// or after the compaction point read the retained samples directly;
    /// full-run queries (`from == ZERO`) continue the exact fold from the
    /// pruned prefix. Anything else would need the dropped samples.
    pub fn energy(&self, from: SimTime, to: SimTime) -> f64 {
        if from >= self.pruned_until {
            return self.draw.integrate(from, to);
        }
        debug_assert!(
            from == SimTime::ZERO && to >= self.pruned_until,
            "node {} energy query [{from:?}, {to:?}) reaches into pruned history",
            self.id
        );
        if to <= from {
            return 0.0;
        }
        self.draw.integrate_seeded(self.pruned_energy_j, to)
    }

    /// Prune draw samples no longer reachable by future energy queries:
    /// after this call only `[ZERO, to)` totals and windows starting at or
    /// after `before` are answerable (both bit-identically). Keeps per-node
    /// state O(segments per interval) instead of O(segments per run).
    pub fn compact_history(&mut self, before: SimTime) {
        self.pruned_energy_j = self.draw.compact_before(before, self.pruned_energy_j);
        self.pruned_until = self.pruned_until.max(before.min(self.busy_until));
    }

    /// Number of retained draw samples (memory-bound tests).
    pub fn history_len(&self) -> usize {
        self.draw.len()
    }

    /// The full draw series (for tracing).
    pub fn draw_series(&self) -> &TimeSeries {
        &self.draw
    }

    /// Exact-state fingerprint for shared walks. Nodes with equal keys
    /// evolve bit-identically under the same (cap, work, jitter) sequence:
    /// the key covers everything `run_phase`/`wait_until`/`request_cap`
    /// read — efficiency, the full RAPL state, the schedule horizon and the
    /// last recorded draw (the `record_draw` dedup threshold). Draw *history*
    /// is deliberately excluded: it only feeds energy queries, and replicas
    /// copy the representative's new segments verbatim.
    pub fn state_key(&self) -> NodeStateKey {
        (
            self.efficiency.to_bits(),
            self.busy_until,
            self.last_draw_w.to_bits(),
            self.rapl.state_key(),
        )
    }

    /// Marks the current end of this node's draw and span buffers. Pass to
    /// [`Node::adopt_walk`] on a replica to copy everything recorded after
    /// the mark.
    pub fn history_mark(&self) -> NodeHistoryMark {
        NodeHistoryMark { draw: self.draw.len(), spans: self.span_buf.len() }
    }

    /// The adopting half of a shared walk: make this node's state identical
    /// to `rep`'s after `rep` (which had the same [`Node::state_key`] at
    /// `mark`) advanced through one or more phases. Copies the new draw
    /// segments and retargets the new span events to this node's id; the
    /// RAPL domain is cloned verbatim rather than replayed, because
    /// `request_cap`'s epsilon no-op check makes replays divergent.
    pub fn adopt_walk(&mut self, rep: &Node, mark: NodeHistoryMark) {
        debug_assert_ne!(self.id, rep.id);
        for i in mark.draw..rep.draw.len() {
            self.draw.push(rep.draw.times()[i], rep.draw.values()[i]);
        }
        self.last_draw_w = rep.last_draw_w;
        self.busy_until = rep.busy_until;
        self.rapl = rep.rapl.clone();
        for ev in &rep.span_buf[mark.spans..] {
            let mut ev = ev.clone();
            match &mut ev.ev {
                obs::Event::Phase { node, .. }
                | obs::Event::Wait { node, .. }
                | obs::Event::CapRequest { node, .. } => *node = self.id,
                other => debug_assert!(false, "unexpected span event {}", other.tag()),
            }
            self.span_buf.push(ev);
        }
    }
}

/// Opaque exact-state fingerprint — see [`Node::state_key`].
pub type NodeStateKey = (u64, SimTime, u64, (u8, u64, u64, Option<(SimTime, u64)>, u32, u64));

/// Buffer positions captured by [`Node::history_mark`].
#[derive(Debug, Clone, Copy)]
pub struct NodeHistoryMark {
    /// Draw-series length at the mark.
    pub draw: usize,
    /// Span-buffer length at the mark.
    pub spans: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CapMode;
    use des::SimDuration;

    fn m() -> MachineConfig {
        MachineConfig::theta()
    }

    fn capped_node(watts: f64) -> Node {
        let m = m();
        Node::new(0, 1.0, RaplDomain::capped(&m, CapMode::Long, watts))
    }

    #[test]
    fn phase_at_reference_power_takes_ref_secs() {
        let m = m();
        let mut n = capped_node(m.ref_power_w);
        let end = n.run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 2.0), 1.0);
        assert!((end.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(n.busy_until(), end);
    }

    #[test]
    fn higher_cap_is_faster() {
        let m = m();
        let mut a = capped_node(110.0);
        let mut b = capped_node(130.0);
        let w = Work::new(PhaseKind::Force, 4.0);
        let ta = a.run_phase(&m, SimTime::ZERO, w, 1.0);
        let tb = b.run_phase(&m, SimTime::ZERO, w, 1.0);
        assert!(tb < ta);
    }

    #[test]
    fn cap_change_mid_phase_splits_execution() {
        let m = m();
        let mut n = capped_node(110.0);
        // Raise the cap 10 ms into a 2 s phase: the tail runs faster.
        n.rapl_mut().request_cap(&m, SimTime::ZERO, 135.0);
        let end = n.run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 2.0), 1.0);
        let t_uniform_110 = 2.0;
        let t_uniform_135 = 2.0 * (110.0 - m.floor_w) / (135.0 - m.floor_w);
        let got = end.as_secs_f64();
        assert!(got < t_uniform_110 && got > t_uniform_135, "{got}");
        // Draw series shows both levels.
        let draws: Vec<f64> = n.draw_series().values().to_vec();
        assert!(draws.contains(&110.0) && draws.contains(&135.0), "{draws:?}");
    }

    #[test]
    fn energy_equals_power_times_time_for_constant_phase() {
        let m = m();
        let mut n = capped_node(110.0);
        let end = n.run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 3.0), 1.0);
        let e = n.energy(SimTime::ZERO, end);
        assert!((e - 110.0 * 3.0).abs() < 1e-6, "{e}");
    }

    #[test]
    fn waiting_draws_wait_power() {
        let m = m();
        let mut n = capped_node(110.0);
        n.wait_until(&m, SimTime::ZERO, SimTime::from_secs_f64(2.0));
        let mean = n.mean_power(SimTime::ZERO, SimTime::from_secs_f64(2.0));
        assert!((mean - m.wait_power_w).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn wait_power_is_capped() {
        let m = m();
        let mut n = capped_node(98.0);
        n.wait_until(&m, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let mean = n.mean_power(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!((mean - 98.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn inefficient_node_is_slower() {
        let m = m();
        let mut nominal = capped_node(110.0);
        let mut slow = Node::new(1, 0.9, RaplDomain::capped(&m, CapMode::Long, 110.0));
        let w = Work::new(PhaseKind::Force, 1.0);
        assert!(
            slow.run_phase(&m, SimTime::ZERO, w, 1.0)
                > nominal.run_phase(&m, SimTime::ZERO, w, 1.0)
        );
    }

    #[test]
    fn zero_work_completes_instantly() {
        let m = m();
        let mut n = capped_node(110.0);
        let end = n.run_phase(&m, SimTime::from_secs_f64(5.0), Work::none(PhaseKind::Force), 1.0);
        assert_eq!(end, SimTime::from_secs_f64(5.0));
    }

    #[test]
    fn compacted_energy_queries_are_bit_identical() {
        let m = m();
        let mut full = capped_node(110.0);
        let mut pruned = capped_node(110.0);
        let mut t = SimTime::ZERO;
        let mut marks = Vec::new();
        for i in 0..50 {
            // Alternate caps so the draw series keeps gaining segments.
            let cap = if i % 2 == 0 { 110.0 } else { 125.0 };
            for n in [&mut full, &mut pruned] {
                n.rapl_mut().request_cap(&m, t, cap);
            }
            let end = full.run_phase(&m, t, Work::new(PhaseKind::Force, 0.3), 1.0);
            let end2 = pruned.run_phase(&m, t, Work::new(PhaseKind::Force, 0.3), 1.0);
            assert_eq!(end, end2);
            marks.push((t, end));
            // Compact up to the interval *start*: the just-closed window
            // stays queryable, everything older folds into the prefix.
            pruned.compact_history(t);
            t = end;
        }
        assert!(pruned.history_len() < full.history_len());
        // Full-run totals and every already-closed window answer the same.
        assert_eq!(
            full.energy(SimTime::ZERO, t).to_bits(),
            pruned.energy(SimTime::ZERO, t).to_bits()
        );
        let (a, b) = *marks.last().unwrap();
        assert_eq!(full.energy(a, b).to_bits(), pruned.energy(a, b).to_bits());
        assert_eq!(full.mean_power(a, b).to_bits(), pruned.mean_power(a, b).to_bits());
    }

    #[test]
    fn compaction_bounds_history_length() {
        let m = m();
        let mut n = capped_node(110.0);
        let mut t = SimTime::ZERO;
        let mut max_len = 0;
        for i in 0..500 {
            let cap = if i % 2 == 0 { 110.0 } else { 125.0 };
            n.rapl_mut().request_cap(&m, t, cap);
            t = n.run_phase(&m, t, Work::new(PhaseKind::Force, 0.1), 1.0);
            n.compact_history(t);
            max_len = max_len.max(n.history_len());
        }
        assert!(max_len <= 4, "history grew to {max_len} segments despite compaction");
    }

    #[test]
    fn adopt_walk_replicates_state_and_history() {
        let m = m();
        let mut rep = capped_node(110.0);
        let mut replica = Node::new(7, 1.0, RaplDomain::capped(&m, CapMode::Long, 110.0));
        assert_eq!(rep.state_key(), replica.state_key());
        let mark = rep.history_mark();
        rep.request_cap(&m, SimTime::ZERO, 130.0);
        let end = rep.run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 1.0), 1.0);
        replica.adopt_walk(&rep, mark);
        assert_eq!(rep.state_key(), replica.state_key());
        assert_eq!(replica.busy_until(), end);
        assert_eq!(
            rep.energy(SimTime::ZERO, end).to_bits(),
            replica.energy(SimTime::ZERO, end).to_bits()
        );
        // And both respond identically to the next phase.
        let e1 = rep.run_phase(&m, end, Work::new(PhaseKind::AnalysisRdf, 0.5), 1.0);
        let e2 = replica.run_phase(&m, end, Work::new(PhaseKind::AnalysisRdf, 0.5), 1.0);
        assert_eq!(e1, e2);
        assert_eq!(rep.state_key(), replica.state_key());
    }

    #[test]
    fn mean_power_mixes_phases() {
        let m = m();
        let mut n = capped_node(110.0);
        let mid = n.run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 1.0), 1.0);
        n.wait_until(&m, mid, mid + SimDuration::from_secs_f64(1.0));
        let mean = n.mean_power(SimTime::ZERO, mid + SimDuration::from_secs_f64(1.0));
        assert!((mean - (110.0 + 105.0) / 2.0).abs() < 1e-6, "{mean}");
    }
}
