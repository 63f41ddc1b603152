//! One node of a [`Cluster`]: the borrowed view that runs a phase on it
//! (one node through the phase pass) and arms its PCU faults, and the
//! energy fold that stands in for every node's draw history.

use crate::cluster::Cluster;
use crate::config::MachineConfig;
use crate::phase::Work;
use crate::power::OpMemo;
use des::SimTime;

/// The `active_to` of a node whose walk has not ended.
pub(crate) const NO_END: SimTime = SimTime::from_nanos(u64::MAX);

/// `watts` held over `[from, to)`, joules: one term of
/// `TimeSeries::integrate`'s fold, computed the same way.
#[inline]
pub(crate) fn term(watts: f64, from: SimTime, to: SimTime) -> f64 {
    watts * to.saturating_since(from).as_secs_f64()
}

node_columns! {
    /// Every node's clock, the draw segment it is in, and its energy over
    /// the windows its readers ask for. Each draw segment is folded in as
    /// it closes, in the order `TimeSeries::integrate` folds the same
    /// segments, so every read is bit-identical to integrating the node's
    /// full draw series over that window.
    pub(crate) struct Nodes {
        /// Time up to which the node's activity has been simulated.
        busy_until: SimTime,
        /// The draw segment in force: `open_w` watts from `open_from` on.
        open_from: SimTime,
        open_w: f64,
        /// `[ZERO, open segment)`: the run total.
        total_j: f64,
        /// `[interval_from, open segment)`: since the node's last walk
        /// began.
        interval_from: SimTime,
        interval_j: f64,
        /// `[since, open segment)`, `since` being the cluster's last
        /// `compact_history` instant.
        since_j: f64,
        /// Where the active window `[interval_from, active_to)` ends once
        /// the walk ended ([`NO_END`] before) ...
        active_to: SimTime,
        /// ... and its value, fixed (`active_fixed`) when a segment closes
        /// at or after `active_to`.
        active_j: f64,
        active_fixed: bool,
    }
}

impl Nodes {
    /// `n` nodes at t = 0, drawing nothing yet.
    pub(crate) fn new(n: usize) -> Self {
        let mut nodes = Nodes::with_len(n);
        nodes.active_to.fill(NO_END);
        nodes
    }

    /// Node `k`'s energy over `[from, to)`, or `None` if no window starts
    /// at `from`. Besides `[interval_from, active_to)`, a window must not
    /// end before the open segment begins.
    pub(crate) fn read(&self, k: usize, since: SimTime, from: SimTime, to: SimTime) -> Option<f64> {
        if to <= from {
            return Some(0.0);
        }
        if self.active_fixed[k] && (from, to) == (self.interval_from[k], self.active_to[k]) {
            return Some(self.active_j[k]);
        }
        let (start, watts) = (self.open_from[k], self.open_w[k]);
        assert!(start <= to, "energy window [{from:?}, {to:?}) ends before {start:?}");
        let upto = |acc: f64| acc + term(watts, start.max(from), to);
        if from == SimTime::ZERO {
            Some(upto(self.total_j[k]))
        } else if from == self.interval_from[k] {
            Some(upto(self.interval_j[k]))
        } else if from == since {
            Some(upto(self.since_j[k]))
        } else if start <= from {
            // Nothing closed since `from`: the fold is one term (0.0 + x).
            Some(term(watts, from, to))
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
    #[inline]
    pub fn busy_until(&self) -> SimTime {
        self.cluster.nodes.busy_until[self.id]
    }

    /// Fault injection: the PCU silently drops the next `n` cap requests
    /// (the write appears to succeed but the enforced cap never changes —
    /// the "stuck RAPL" failure observed on production nodes).
    pub fn inject_ignore_requests(&mut self, n: u32) {
        self.cluster.rapl.inject_ignore_requests(self.id, n);
    }

    /// Fault injection: the next cap request takes `extra_s` additional
    /// seconds beyond the normal actuation latency to land.
    pub fn inject_extra_latency(&mut self, extra_s: f64) {
        self.cluster.rapl.inject_extra_latency(self.id, extra_s);
    }

    /// Execute `work` starting at `start`, honouring any cap change that
    /// lands mid-phase: this node alone through the phase pass
    /// [`Cluster::walk`] runs. `jitter` is a per-phase duration multiplier
    /// from the noise model. Returns the completion time.
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
        let id = self.id;
        debug_assert!(start >= self.busy_until(), "node {id} scheduled into its past");
        debug_assert!(jitter > 0.0);
        let mut memo = OpMemo::default();
        memo.reset(m, work);
        let c = &mut *self.cluster;
        c.run_phase_columns(m, &[id], Some(start), work, &[1.0], &[jitter], &mut memo);
        c.nodes.busy_until[id]
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
        c.node_mut(0).request_cap(&m, SimTime::ZERO, 135.0);
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
