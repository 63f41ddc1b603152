//! Run results: per-synchronization records and whole-run summaries.

use des::TimeSeries;
use faults::{FaultEvent, RecoveryEvent, RecoveryKind};

/// One synchronization interval's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncRecord {
    /// Synchronization index (1-based; the first closed interval is 1).
    pub index: u64,
    /// Interval start on the simulated clock, seconds.
    pub start_s: f64,
    /// Interval end (both partitions arrived + allocation done), seconds.
    pub end_s: f64,
    /// Simulation partition's time to reach the sync (slowest node), s.
    pub sim_time_s: f64,
    /// Analysis partition's time to reach the sync (slowest node), s.
    pub analysis_time_s: f64,
    /// Mean per-node cap in force on simulation nodes during the interval.
    pub sim_cap_w: f64,
    /// Mean per-node cap in force on analysis nodes during the interval.
    pub analysis_cap_w: f64,
    /// Measured mean per-node power, simulation partition, active window.
    pub sim_power_w: f64,
    /// Measured mean per-node power, analysis partition, active window.
    pub analysis_power_w: f64,
    /// Normalized slack: `|T_S − T_A| / max(T_S, T_A)` (the black series in
    /// the paper's Figs. 4–5).
    pub slack: f64,
    /// Power-allocation overhead charged at the end of this interval, s.
    pub overhead_s: f64,
}

/// Result of one complete run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Controller that governed the run.
    pub controller: String,
    /// Total simulated wall-clock time, seconds.
    pub total_time_s: f64,
    /// Total energy consumed by all nodes, joules.
    pub total_energy_j: f64,
    /// Per-synchronization records.
    pub syncs: Vec<SyncRecord>,
    /// 200 ms-sampled total power of the simulation partition, if recorded.
    pub sim_trace: Option<TimeSeries>,
    /// 200 ms-sampled total power of the analysis partition, if recorded.
    pub analysis_trace: Option<TimeSeries>,
    /// Faults that actually fired during the run (empty on the happy path).
    pub fault_events: Vec<FaultEvent>,
    /// Graceful-degradation actions taken in response to injected faults.
    pub recovery_events: Vec<RecoveryEvent>,
}

impl RunResult {
    /// Mean normalized slack from sync `from` onward (the paper reports
    /// slack "calculated from the 10th step").
    pub fn mean_slack_from(&self, from: u64) -> f64 {
        let tail: Vec<f64> =
            self.syncs.iter().filter(|s| s.index >= from).map(|s| s.slack).collect();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Total allocation overhead across the run, seconds.
    pub fn total_overhead_s(&self) -> f64 {
        self.syncs.iter().map(|s| s.overhead_s).sum()
    }

    /// How many recovery actions of one kind the run logged.
    pub fn recovery_count(&self, kind: RecoveryKind) -> usize {
        self.recovery_events.iter().filter(|r| r.kind == kind).count()
    }

    /// Distinct fault tags that fired (e.g. `["node_crash", "sample_nan"]`).
    pub fn fault_tags(&self) -> Vec<&'static str> {
        let mut tags: Vec<&'static str> = self.fault_events.iter().map(|e| e.kind.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
}

/// `(baseline − value) / baseline`, as a percentage. Positive = improvement.
pub fn improvement_pct(baseline: f64, value: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (baseline - value) / baseline * 100.0
}

/// Median of a sample (empty → 0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Variability of a sample as `(max − min) / median × 100` (Table I).
pub fn variability_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let med = median(values);
    if med <= 0.0 {
        0.0
    } else {
        (max - min) / med * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_sign_convention() {
        assert_eq!(improvement_pct(100.0, 90.0), 10.0);
        assert_eq!(improvement_pct(100.0, 125.0), -25.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn variability_definition() {
        let v = [98.0, 100.0, 102.0];
        assert!((variability_pct(&v) - 4.0).abs() < 1e-9);
        assert_eq!(variability_pct(&[5.0]), 0.0);
    }

    #[test]
    fn mean_slack_tail() {
        let mk = |index, slack| SyncRecord {
            index,
            start_s: 0.0,
            end_s: 0.0,
            sim_time_s: 0.0,
            analysis_time_s: 0.0,
            sim_cap_w: 0.0,
            analysis_cap_w: 0.0,
            sim_power_w: 0.0,
            analysis_power_w: 0.0,
            slack,
            overhead_s: 0.0,
        };
        let r = RunResult {
            controller: "x".into(),
            total_time_s: 0.0,
            total_energy_j: 0.0,
            syncs: vec![mk(1, 0.9), mk(10, 0.1), mk(11, 0.3)],
            sim_trace: None,
            analysis_trace: None,
            fault_events: Vec::new(),
            recovery_events: Vec::new(),
        };
        assert!((r.mean_slack_from(10) - 0.2).abs() < 1e-12);
    }
}
