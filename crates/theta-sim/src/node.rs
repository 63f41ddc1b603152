//! One node of a [`Cluster`]: the borrowed view that executes phases, waits
//! and cap requests on it, and the energy fold that stands in for its draw
//! history.

use crate::cluster::Cluster;
use crate::config::MachineConfig;
use crate::phase::Work;
use crate::power::{operating_point, OpMemo};
use crate::rapl::RaplDomain;
use des::SimTime;

/// The draw segment a node is in: `watts` from `start` on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub start: SimTime,
    pub watts: f64,
}

/// `watts` held over `[from, to)`, joules: one term of
/// `TimeSeries::integrate`'s fold, computed the same way.
#[inline]
fn term(watts: f64, from: SimTime, to: SimTime) -> f64 {
    watts * to.saturating_since(from).as_secs_f64()
}

/// One node's energy over the windows its readers ask for. Each draw
/// segment is folded in as it closes, in the order `TimeSeries::integrate`
/// folds the same segments, so every read is bit-identical to integrating
/// the node's full draw series over that window.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Windows {
    /// `[ZERO, open segment)`: the run total.
    total_j: f64,
    /// `[interval_from, open segment)`: since the node's last walk began.
    interval_from: SimTime,
    interval_j: f64,
    /// `[since, open segment)`, `since` being the cluster's last
    /// `compact_history` instant.
    pub(crate) since_j: f64,
    /// The active window `[interval_from, active_to)` once its walk ended:
    /// its value is fixed when a segment closes at or after `active_to`.
    active_to: Option<SimTime>,
    active_j: Option<f64>,
}

impl Windows {
    /// Fold in `seg`, which a new segment replaces at `t`.
    #[inline]
    fn close(&mut self, seg: Segment, t: SimTime, since: SimTime) {
        let from = seg.start.max(self.interval_from);
        if let Some(end) = self.active_to.filter(|&end| t >= end && self.active_j.is_none()) {
            self.active_j = Some(self.interval_j + term(seg.watts, from, end));
        }
        // A segment that began inside a window adds the same term to it.
        let full = term(seg.watts, seg.start, t);
        let clipped =
            |from: SimTime| if seg.start >= from { full } else { term(seg.watts, from, t) };
        self.total_j += full;
        self.interval_j += clipped(self.interval_from);
        self.since_j += clipped(since);
    }

    /// Energy over `[from, to)` with `open` the segment in force, or `None`
    /// if no window starts at `from`. Besides `[interval_from,
    /// active_to)`, a window must not end before the open segment begins.
    pub(crate) fn read(
        &self,
        open: Segment,
        since: SimTime,
        from: SimTime,
        to: SimTime,
    ) -> Option<f64> {
        if to <= from {
            return Some(0.0);
        }
        if let Some(j) =
            self.active_j.filter(|_| (from, Some(to)) == (self.interval_from, self.active_to))
        {
            return Some(j);
        }
        assert!(open.start <= to, "energy window [{from:?}, {to:?}) ends before {:?}", open.start);
        let upto = |acc: f64| acc + term(open.watts, open.start.max(from), to);
        if from == SimTime::ZERO {
            Some(upto(self.total_j))
        } else if from == self.interval_from {
            Some(upto(self.interval_j))
        } else if from == since {
            Some(upto(self.since_j))
        } else if open.start <= from {
            // Nothing closed since `from`: the fold is one term (0.0 + x).
            Some(term(open.watts, from, to))
        } else {
            None
        }
    }
}

/// A borrowed view of one node of a [`Cluster`] (see [`Cluster::node_mut`]).
pub struct NodeMut<'a> {
    pub(crate) cluster: &'a mut Cluster,
    pub(crate) id: usize,
}

impl NodeMut<'_> {
    /// Time up to which this node has been simulated.
    pub fn busy_until(&self) -> SimTime {
        self.cluster.busy_until[self.id]
    }

    /// Mutable access to the RAPL domain (fault injection, raw requests).
    pub fn rapl_mut(&mut self) -> &mut RaplDomain {
        &mut self.cluster.rapl[self.id]
    }

    /// Request a new RAPL cap, recording the request/grant/enforcement
    /// triple on the trace. Returns the clamped value RAPL accepted.
    pub fn request_cap(&mut self, m: &MachineConfig, now: SimTime, watts: f64) -> f64 {
        let c = &mut *self.cluster;
        let rapl = &mut c.rapl[self.id];
        let granted = rapl.request_cap(m, now, watts);
        if c.tracer.is_enabled() {
            // Actuation latency: when the request is a no-op or the PCU is
            // stuck, enforcement never changes — report the request time.
            let effective = rapl.next_change_after(now).unwrap_or(now);
            c.spans[self.id].push(obs::TraceEvent {
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

    /// Open this node's interval and active windows at `t0`, where its
    /// next walk begins.
    pub fn begin_interval(&mut self, t0: SimTime) {
        let w = &mut self.cluster.windows[self.id];
        w.interval_from = t0;
        w.interval_j = 0.0;
        w.active_to = None;
        w.active_j = None;
    }

    /// Close this node's active window where its walk ended: at its arrival,
    /// or 1 ns after the interval began if it did no timed work.
    pub fn end_walk(&mut self) {
        let id = self.id;
        let w = &mut self.cluster.windows[id];
        let floor = w.interval_from + des::SimDuration::from_nanos(1);
        w.active_to = Some(self.cluster.busy_until[id].max(floor));
    }

    #[inline]
    fn record_draw(&mut self, t: SimTime, watts: f64) {
        let c = &mut *self.cluster;
        let open = c.open[self.id];
        if (watts - open.watts).abs() > 1e-9 {
            c.windows[self.id].close(open, t, c.since);
            c.open[self.id] = Segment { start: t, watts };
            if let Some(log) = c.log.get_mut(self.id) {
                log.push(t, watts);
            }
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
        self.run_phase_with(m, start, work, jitter, None)
    }

    /// [`NodeMut::run_phase`], with the phase's operating points taken
    /// from `memo` (one per distinct cap across a partition's nodes).
    #[inline]
    pub fn run_phase_with(
        &mut self,
        m: &MachineConfig,
        start: SimTime,
        work: Work,
        jitter: f64,
        mut memo: Option<&mut OpMemo>,
    ) -> SimTime {
        let id = self.id;
        debug_assert!(start >= self.busy_until(), "node {id} scheduled into its past");
        debug_assert!(jitter > 0.0);
        self.rapl_mut().advance(start);
        // Remaining work measured in reference-seconds, inflated by jitter
        // and this node's (in)efficiency.
        let mut remaining = work.ref_secs * jitter / self.cluster.noise.node_efficiency(id);
        let mut t = start;
        if remaining <= 0.0 {
            self.cluster.busy_until[id] = t;
            return t;
        }
        loop {
            let cap = self.cluster.rapl[id].enforced_at(t);
            let point = match memo.as_deref_mut() {
                Some(memo) => memo.point(m, cap),
                None => operating_point(m, work, cap),
            };
            self.record_draw(t, point.draw_w);
            debug_assert!(point.rate > 0.0, "productive phase stalled");
            let end = t + des::SimDuration::from_secs_f64(remaining / point.rate);
            let rapl = self.rapl_mut();
            match rapl.next_change_after(t) {
                Some(change) if change < end => {
                    remaining -= change.saturating_since(t).as_secs_f64() * point.rate;
                    t = change;
                    rapl.advance(t);
                }
                _ => {
                    t = end;
                    break;
                }
            }
        }
        let c = &mut *self.cluster;
        c.busy_until[id] = t;
        if c.tracer.is_enabled() {
            c.spans[id].push(obs::TraceEvent {
                t: start,
                ev: obs::Event::Phase {
                    node: id,
                    kind: work.kind.tag().into(),
                    start_ns: start.as_nanos(),
                    end_ns: t.as_nanos(),
                },
            });
        }
        t
    }

    /// Block at a synchronization point from `from` until `until`, drawing
    /// the cluster machine's wait power (subject to the cap).
    pub fn wait_until(&mut self, from: SimTime, until: SimTime) {
        let id = self.id;
        debug_assert!(from >= self.busy_until());
        if until <= from {
            self.cluster.busy_until[id] = self.busy_until().max(from);
            return;
        }
        self.rapl_mut().advance(from);
        // Waiting draws the wait demand, capped (`operating_point` of a wait).
        let demand = self.cluster.wait_demand_w;
        let mut t = from;
        while t < until {
            let cap = self.cluster.rapl[id].enforced_at(t);
            self.record_draw(t, demand.min(cap));
            let rapl = self.rapl_mut();
            match rapl.next_change_after(t) {
                Some(change) if change < until => {
                    t = change;
                    rapl.advance(t);
                }
                _ => t = until,
            }
        }
        let c = &mut *self.cluster;
        c.busy_until[id] = until;
        if c.tracer.is_enabled() {
            c.spans[id].push(obs::TraceEvent {
                t: from,
                ev: obs::Event::Wait {
                    node: id,
                    start_ns: from.as_nanos(),
                    end_ns: until.as_nanos(),
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{CapMode, MachineConfig};
    use crate::phase::{PhaseKind, Work};
    use crate::{Cluster, NoiseSeed};
    use des::{SimDuration, SimTime};

    fn m() -> MachineConfig {
        MachineConfig::theta()
    }

    fn capped_node(watts: f64) -> Cluster {
        Cluster::noiseless(m(), 1, CapMode::Long, watts)
    }

    #[test]
    fn phase_at_reference_power_takes_ref_secs() {
        let m = m();
        let mut c = capped_node(m.ref_power_w);
        let mut n = c.node_mut(0);
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
        let ta = a.node_mut(0).run_phase(&m, SimTime::ZERO, w, 1.0);
        let tb = b.node_mut(0).run_phase(&m, SimTime::ZERO, w, 1.0);
        assert!(tb < ta);
    }

    #[test]
    fn cap_change_mid_phase_splits_execution() {
        let m = m();
        let mut c = capped_node(110.0);
        c.keep_draw_log();
        // Raise the cap 10 ms into a 2 s phase: the tail runs faster.
        c.node_mut(0).rapl_mut().request_cap(&m, SimTime::ZERO, 135.0);
        let end = c.node_mut(0).run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 2.0), 1.0);
        let t_uniform_110 = 2.0;
        let t_uniform_135 = 2.0 * (110.0 - m.floor_w) / (135.0 - m.floor_w);
        let got = end.as_secs_f64();
        assert!(got < t_uniform_110 && got > t_uniform_135, "{got}");
        // The draw log shows both levels.
        let draws = c.log[0].values();
        assert!(draws.contains(&110.0) && draws.contains(&135.0), "{draws:?}");
    }

    #[test]
    fn energy_equals_power_times_time_for_constant_phase() {
        let m = m();
        let mut c = capped_node(110.0);
        let end = c.node_mut(0).run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 3.0), 1.0);
        let e = c.energy(0, SimTime::ZERO, end);
        assert!((e - 110.0 * 3.0).abs() < 1e-6, "{e}");
    }

    #[test]
    fn waiting_draws_wait_power() {
        let m = m();
        let mut c = capped_node(110.0);
        c.node_mut(0).wait_until(SimTime::ZERO, SimTime::from_secs_f64(2.0));
        let mean = c.mean_power(0, SimTime::ZERO, SimTime::from_secs_f64(2.0));
        assert!((mean - m.wait_power_w).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn wait_power_is_capped() {
        let mut c = capped_node(98.0);
        c.node_mut(0).wait_until(SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let mean = c.mean_power(0, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        assert!((mean - 98.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn inefficient_node_is_slower() {
        let m = m();
        let mut c = Cluster::with_caps(m.clone(), &[110.0; 2], CapMode::Long, NoiseSeed::new(1, 1));
        let (e0, e1) = (c.noise.node_efficiency(0), c.noise.node_efficiency(1));
        assert_ne!(e0, e1);
        let (slow, fast) = if e0 < e1 { (0, 1) } else { (1, 0) };
        let w = Work::new(PhaseKind::Force, 1.0);
        assert!(
            c.node_mut(slow).run_phase(&m, SimTime::ZERO, w, 1.0)
                > c.node_mut(fast).run_phase(&m, SimTime::ZERO, w, 1.0)
        );
    }

    #[test]
    fn zero_work_completes_instantly() {
        let m = m();
        let mut c = capped_node(110.0);
        let start = SimTime::from_secs_f64(5.0);
        let end = c.node_mut(0).run_phase(&m, start, Work::none(PhaseKind::Force), 1.0);
        assert_eq!(end, start);
    }

    /// Every window the cluster answers equals integrating the node's full
    /// draw log over it, bit for bit, and restarting the `since` window
    /// (`compact_history`) moves no other window's bits.
    #[test]
    fn compacted_energy_queries_are_bit_identical() {
        let m = m();
        let mut plain = capped_node(110.0);
        let mut compacted = capped_node(110.0);
        plain.keep_draw_log();
        let (mut t, mut since) = (SimTime::ZERO, SimTime::ZERO);
        for i in 0..50 {
            // Alternate caps so the draw keeps gaining segments; a zero
            // allocation wait every third interval.
            let cap = if i % 2 == 0 { 110.0 } else { 125.0 };
            let wait = SimDuration::from_micros(if i % 3 == 0 { 0 } else { 40 });
            let mut ends = Vec::new();
            for c in [&mut plain, &mut compacted] {
                let mut n = c.node_mut(0);
                n.begin_interval(t);
                let arrival =
                    n.run_phase(&m, t, Work::new(PhaseKind::Force, 0.003 * i as f64), 1.0);
                n.end_walk();
                n.request_cap(&m, arrival, cap);
                n.wait_until(arrival, arrival + wait);
                ends.push((arrival, arrival + wait));
            }
            assert_eq!(ends[0], ends[1]);
            let (arrival, end) = ends[0];
            let active = arrival.max(t + SimDuration::from_nanos(1));
            let log = &plain.log[0];
            for (from, to) in [(t, active), (t, end), (SimTime::ZERO, end)] {
                let e = log.integrate(from, to).to_bits();
                assert_eq!(plain.energy(0, from, to).to_bits(), e, "[{from:?}, {to:?})");
                assert_eq!(compacted.energy(0, from, to).to_bits(), e, "[{from:?}, {to:?})");
            }
            let e = log.integrate(since, end).to_bits();
            assert_eq!(compacted.energy(0, since, end).to_bits(), e, "since {since:?}");
            if i % 3 == 0 {
                compacted.compact_history(end);
                since = end;
            }
            t = end;
        }
    }

    #[test]
    fn mean_power_mixes_phases() {
        let m = m();
        let mut c = capped_node(110.0);
        let mid = c.node_mut(0).run_phase(&m, SimTime::ZERO, Work::new(PhaseKind::Force, 1.0), 1.0);
        c.node_mut(0).wait_until(mid, mid + SimDuration::from_secs_f64(1.0));
        let mean = c.mean_power(0, SimTime::ZERO, mid + SimDuration::from_secs_f64(1.0));
        assert!((mean - (110.0 + 105.0) / 2.0).abs() < 1e-6, "{mean}");
    }
}
