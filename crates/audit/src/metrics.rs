//! Derived reports: where the time and the energy actually went.
//!
//! Everything here is computed from the trace alone. Span durations and
//! per-node/per-interval energies are exact (the simulator records them);
//! per-phase *energy* attribution multiplies each phase span by the
//! node's measured mean power over that interval (the `sample` event), a
//! first-order attribution that is exact when power is flat within the
//! interval and clearly labelled approximate otherwise.

use crate::diag::{Severity, Violation};
use crate::json::Value;
use obs::json_fields;
use std::fmt::Write as _;

/// Time and (approximate) energy attributed to one phase kind.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAttribution {
    /// Phase kind tag (e.g. `"force"`, `"analysis_msd"`, `"wait"`).
    pub kind: String,
    /// Number of spans.
    pub spans: u64,
    /// Total span time across nodes, seconds.
    pub time_s: f64,
    /// Mean-power-weighted energy attribution, joules.
    pub energy_j: f64,
}

/// Exact energy attributed to one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionAttribution {
    /// Partition tag (`"sim"` / `"analysis"`).
    pub role: String,
    /// Distinct nodes seen in the partition.
    pub nodes: u64,
    /// Sum of the partition's whole-run node energies, joules.
    pub energy_j: f64,
}

/// Barrier-wait breakdown for one synchronization interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncStragglers {
    /// 1-based synchronization index.
    pub sync: u64,
    /// Simulation-partition interval time (slowest node), seconds.
    pub sim_time_s: f64,
    /// Analysis-partition interval time (slowest node), seconds.
    pub analysis_time_s: f64,
    /// Normalized rendezvous slack.
    pub slack: f64,
    /// Total time nodes spent blocked at the barrier, seconds.
    pub wait_total_s: f64,
    /// Longest single wait, seconds.
    pub wait_max_s: f64,
    /// The node that arrived last (the straggler), if arrivals were traced.
    pub slowest_node: Option<u64>,
}

/// Whole-run critical-path decomposition: every interval is limited by
/// exactly one partition, and allocation overhead is serial on top.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// Time on intervals where simulation was the slower partition, seconds.
    pub sim_limited_s: f64,
    /// Time on intervals where analysis was the slower partition, seconds.
    pub analysis_limited_s: f64,
    /// Serial allocation/exchange overhead, seconds.
    pub overhead_s: f64,
    /// Intervals limited by the simulation partition.
    pub sim_limited_syncs: u64,
    /// Intervals limited by the analysis partition.
    pub analysis_limited_syncs: u64,
}

/// Summary of the observed cap-actuation latency distribution
/// (request → enforcement, over requests that actually changed the cap).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    /// Actuated requests (latency > 0).
    pub count: u64,
    /// Requests that were no-ops or swallowed (latency = 0).
    pub immediate: u64,
    /// Minimum latency, seconds (0 when empty).
    pub min_s: f64,
    /// Maximum latency, seconds.
    pub max_s: f64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_s: f64,
}

/// The full audit result for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Total events audited.
    pub events: u64,
    /// Synchronization intervals opened.
    pub syncs: u64,
    /// Total run time, seconds (0 when the trace has no `run_end`).
    pub total_time_s: f64,
    /// Total run energy, joules (0 when the trace has no `run_end`).
    pub total_energy_j: f64,
    /// Every invariant violation found (empty = clean).
    pub violations: Vec<Violation>,
    /// Per-phase-kind time/energy attribution, sorted by kind.
    pub phases: Vec<PhaseAttribution>,
    /// Per-partition exact energy attribution, sorted by role.
    pub partitions: Vec<PartitionAttribution>,
    /// Per-interval barrier-wait breakdown.
    pub stragglers: Vec<SyncStragglers>,
    /// Critical-path decomposition.
    pub critical_path: CriticalPath,
    /// Cap-actuation latency distribution.
    pub cap_latency: LatencyStats,
}

impl AuditReport {
    /// Whether the invariant battery passed: no error-severity findings.
    /// Advisory warnings (e.g. the `AUDIT0012` halt notice) stay in
    /// `violations` for the record but do not fail the audit.
    pub fn clean(&self) -> bool {
        self.violations.iter().all(|x| x.severity() != Severity::Error)
    }

    /// The report as the `report` section of the run document.
    pub fn to_value(&self) -> Value {
        let violations = self.violations.iter().map(|x| {
            Value::obj([
                ("code", x.code_str().into()),
                ("severity", x.severity().tag().into()),
                ("check", x.check().into()),
                ("detail", x.detail.as_str().into()),
            ])
        });
        let phases = self.phases.iter().map(|p| json_fields!(p, kind, spans, time_s, energy_j));
        let partitions = self.partitions.iter().map(|p| json_fields!(p, role, nodes, energy_j));
        let stragglers = self.stragglers.iter().map(|x| {
            json_fields!(
                x,
                sync,
                sim_time_s,
                analysis_time_s,
                slack,
                wait_total_s,
                wait_max_s,
                slowest_node
            )
        });
        let (cp, cl) = (&self.critical_path, &self.cap_latency);
        Value::obj([
            ("events", self.events.into()),
            ("syncs", self.syncs.into()),
            ("total_time_s", self.total_time_s.into()),
            ("total_energy_j", self.total_energy_j.into()),
            ("violations", Value::Arr(violations.collect())),
            ("phases", Value::Arr(phases.collect())),
            ("partitions", Value::Arr(partitions.collect())),
            ("stragglers", Value::Arr(stragglers.collect())),
            (
                "critical_path",
                json_fields!(
                    cp,
                    sim_limited_s,
                    analysis_limited_s,
                    overhead_s,
                    sim_limited_syncs,
                    analysis_limited_syncs
                ),
            ),
            ("cap_latency", json_fields!(cl, count, immediate, min_s, max_s, mean_s, p95_s)),
        ])
    }

    /// [`to_value`](Self::to_value), printed.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// A short human summary (one paragraph, for the reporter).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "audit: {} events, {} syncs, {}",
            self.events,
            self.syncs,
            if self.clean() {
                "0 violations".to_string()
            } else {
                let errors =
                    self.violations.iter().filter(|x| x.severity() == Severity::Error).count();
                format!("{errors} VIOLATIONS")
            }
        );
        if self.total_time_s > 0.0 {
            let _ = write!(s, "; {:.2} s, {:.0} J", self.total_time_s, self.total_energy_j);
        }
        let cp = &self.critical_path;
        if cp.sim_limited_syncs + cp.analysis_limited_syncs > 0 {
            let _ = write!(
                s,
                "; critical path {:.2} s sim / {:.2} s analysis / {:.2} s overhead",
                cp.sim_limited_s, cp.analysis_limited_s, cp.overhead_s
            );
        }
        if self.cap_latency.count > 0 {
            let _ = write!(
                s,
                "; cap actuation p95 {:.1} ms over {} requests",
                self.cap_latency.p95_s * 1e3,
                self.cap_latency.count
            );
        }
        for viol in self.violations.iter().take(5) {
            let _ = write!(s, "\n  {viol}");
        }
        if self.violations.len() > 5 {
            let _ = write!(s, "\n  ... and {} more", self.violations.len() - 5);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Event, TraceEvent};

    fn ev(t_ns: u64, ev: Event) -> TraceEvent {
        TraceEvent { t: des::SimTime::from_nanos(t_ns), ev }
    }

    fn small_trace() -> Vec<TraceEvent> {
        vec![
            ev(0, Event::SyncStart { sync: 1 }),
            ev(
                0,
                Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 2_000_000_000 },
            ),
            ev(
                2_000_000_000,
                Event::Wait { node: 0, start_ns: 2_000_000_000, end_ns: 3_000_000_000 },
            ),
            ev(3_000_000_000, Event::Arrival { sync: 1, node: 0, role: "sim".into(), time_s: 2.0 }),
            ev(
                3_000_000_000,
                Event::Arrival { sync: 1, node: 1, role: "analysis".into(), time_s: 3.0 },
            ),
            ev(
                3_000_000_000,
                Event::Rendezvous {
                    sync: 1,
                    sim_time_s: 2.0,
                    analysis_time_s: 3.0,
                    slack: 1.0 / 3.0,
                },
            ),
            ev(
                3_000_000_000,
                Event::Sample {
                    node: 0,
                    role: "sim".into(),
                    time_s: 2.0,
                    power_w: 110.0,
                    cap_w: 115.0,
                },
            ),
            ev(
                3_000_000_000,
                Event::CapRequest {
                    node: 0,
                    requested_w: 120.0,
                    granted_w: 120.0,
                    effective_ns: 3_010_000_000,
                },
            ),
            ev(3_100_000_000, Event::SyncEnd { sync: 1, overhead_s: 0.1 }),
            ev(3_100_000_000, Event::NodeEnergy { node: 0, energy_j: 300.0 }),
            ev(3_100_000_000, Event::NodeEnergy { node: 1, energy_j: 100.0 }),
            ev(3_100_000_000, Event::RunEnd { total_time_s: 3.1, total_energy_j: 400.0 }),
        ]
    }

    #[test]
    fn report_derives_attribution_and_critical_path() {
        let r = crate::audited(&small_trace()).report;
        assert_eq!(r.syncs, 1);
        assert_eq!(r.total_energy_j, 400.0);
        // Phase attribution: 2 s of force at 110 W + 1 s wait at 110 W.
        let force = r.phases.iter().find(|p| p.kind == "force").unwrap();
        assert!((force.time_s - 2.0).abs() < 1e-12);
        assert!((force.energy_j - 220.0).abs() < 1e-9);
        let wait = r.phases.iter().find(|p| p.kind == "wait").unwrap();
        assert!((wait.energy_j - 110.0).abs() < 1e-9);
        // Partition energy is exact from node_energy events.
        let sim = r.partitions.iter().find(|p| p.role == "sim").unwrap();
        assert_eq!(sim.energy_j, 300.0);
        // Analysis was slower: critical path charges it.
        assert_eq!(r.critical_path.analysis_limited_syncs, 1);
        assert!((r.critical_path.analysis_limited_s - 3.0).abs() < 1e-12);
        assert!((r.critical_path.overhead_s - 0.1).abs() < 1e-12);
        // The straggler row names node 1.
        assert_eq!(r.stragglers.len(), 1);
        assert_eq!(r.stragglers[0].slowest_node, Some(1));
        assert!((r.stragglers[0].wait_max_s - 1.0).abs() < 1e-12);
        // Cap latency: one actuated request at 10 ms.
        assert_eq!(r.cap_latency.count, 1);
        assert!((r.cap_latency.p95_s - 0.01).abs() < 1e-12);
        assert!(r.clean());
    }

    #[test]
    fn report_json_parses_back() {
        let r = crate::audited(&small_trace()).report;
        let v = crate::json::parse(&r.to_json()).expect("report JSON parses");
        assert_eq!(v, r.to_value());
        assert_eq!(v.get("syncs").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("violations").unwrap().as_arr().unwrap().len(), 0);
        assert!(v.get("critical_path").unwrap().get("overhead_s").is_some());
    }

    #[test]
    fn summary_mentions_violations() {
        let mut r = crate::audited(&small_trace()).report;
        assert!(r.summary().contains("0 violations"));
        r.violations.push(Violation::new(crate::diag::CLOCK, "x"));
        assert!(r.summary().contains("1 VIOLATIONS"));
        assert!(r.summary().contains("error[AUDIT0001] clock: x"));
        assert!(r.to_json().contains("\"code\": \"AUDIT0001\""));
        assert!(r.to_json().contains("\"severity\": \"error\""));
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let r = crate::audited(&[]).report;
        assert!(r.clean());
        assert_eq!(r.events, 0);
        assert_eq!(r.cap_latency.count, 0);
    }
}
