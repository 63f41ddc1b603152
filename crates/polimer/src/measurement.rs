//! Per-interval measurement bookkeeping.
//!
//! PoLiMER measures, for each interval between synchronizations, the time
//! of the slowest rank per partition (including the time to perform the
//! power allocation itself) and the summed power of each partition's nodes
//! (paper §VI-B). The runtime feeds raw per-node numbers in; this module
//! normalizes them into [`seesaw::NodeSample`]s.

use seesaw::{NodeSample, Role, SyncObservation};

/// Raw feedback for one node over one synchronization interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInterval {
    /// Node index.
    pub node: usize,
    /// Partition.
    pub role: Role,
    /// Slowest rank's time on this node for the interval, seconds.
    pub time_s: f64,
    /// Measured mean node power over the interval, watts.
    pub power_w: f64,
    /// The per-node cap in force during the interval, watts.
    pub cap_w: f64,
}

/// Accumulates node intervals and produces controller observations.
#[derive(Debug, Clone, Default)]
pub struct IntervalAccumulator {
    pending: Vec<NodeInterval>,
    sync_index: u64,
    /// Overhead of the previous allocation call, charged into the next
    /// interval's times (the paper includes allocation time in the
    /// measured interval).
    carry_overhead_s: f64,
}

impl IntervalAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one node's interval feedback.
    pub fn push(&mut self, interval: NodeInterval) {
        self.pending.push(interval);
    }

    /// Charge allocation overhead to be folded into the next observation's
    /// times.
    pub fn charge_overhead(&mut self, secs: f64) {
        self.carry_overhead_s += secs.max(0.0);
    }

    /// Number of pending node records.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Current synchronization index (completed observations).
    pub fn sync_index(&self) -> u64 {
        self.sync_index
    }

    /// Close the interval: overwrite `obs` with the observation (reusing
    /// its sample buffer) and clear state. Returns `false`, leaving `obs`
    /// untouched, if no feedback was recorded.
    pub fn close_interval_into(&mut self, obs: &mut SyncObservation) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let overhead = self.carry_overhead_s;
        self.carry_overhead_s = 0.0;
        obs.step = self.sync_index;
        obs.nodes.clear();
        obs.nodes.extend(self.pending.drain(..).map(|iv| NodeSample {
            node: iv.node,
            role: iv.role,
            time_s: iv.time_s + overhead,
            power_w: iv.power_w,
            cap_w: iv.cap_w,
        }));
        self.sync_index += 1;
        true
    }

    /// Reset for a fresh run.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.sync_index = 0;
        self.carry_overhead_s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(node: usize, role: Role, t: f64) -> NodeInterval {
        NodeInterval { node, role, time_s: t, power_w: 100.0, cap_w: 110.0 }
    }

    fn close(acc: &mut IntervalAccumulator) -> Option<SyncObservation> {
        let mut obs = SyncObservation { step: u64::MAX, nodes: Vec::new() };
        acc.close_interval_into(&mut obs).then_some(obs)
    }

    #[test]
    fn close_builds_observation_and_advances_index() {
        let mut acc = IntervalAccumulator::new();
        acc.push(iv(0, Role::Simulation, 4.0));
        acc.push(iv(1, Role::Analysis, 2.0));
        let obs = close(&mut acc).unwrap();
        assert_eq!(obs.step, 0);
        assert_eq!(obs.nodes.len(), 2);
        assert_eq!(acc.sync_index(), 1);
        assert!(close(&mut acc).is_none(), "drained");
    }

    #[test]
    fn overhead_is_folded_into_next_interval_times() {
        let mut acc = IntervalAccumulator::new();
        acc.charge_overhead(0.5);
        acc.push(iv(0, Role::Simulation, 4.0));
        let obs = close(&mut acc).unwrap();
        assert!((obs.nodes[0].time_s - 4.5).abs() < 1e-12);
        // Consumed: next interval is clean.
        acc.push(iv(0, Role::Simulation, 4.0));
        let obs = close(&mut acc).unwrap();
        assert!((obs.nodes[0].time_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn negative_overhead_ignored() {
        let mut acc = IntervalAccumulator::new();
        acc.charge_overhead(-1.0);
        acc.push(iv(0, Role::Simulation, 1.0));
        let obs = close(&mut acc).unwrap();
        assert_eq!(obs.nodes[0].time_s, 1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut acc = IntervalAccumulator::new();
        acc.push(iv(0, Role::Simulation, 1.0));
        close(&mut acc);
        acc.reset();
        assert_eq!(acc.sync_index(), 0);
        assert_eq!(acc.pending(), 0);
    }
}
