//! The streaming audit engine: one pass, bounded state, live health.
//!
//! [`StreamAuditor`] consumes events one at a time — from a live
//! [`obs::Tracer`] (it implements [`obs::EventSubscriber`]), from a JSONL
//! file line by line ([`StreamAuditor::feed_line`]), or from an in-memory
//! trace — and produces the full [`AuditReport`] plus a [`Registry`] of
//! counters/gauges/histograms and the per-interval [`RunHealth`] snapshot
//! series, which [`StreamOutcome::to_json`] writes as one run document.
//!
//! **One engine.** Every audit is "feed a `StreamAuditor`, then finish":
//! the bins' live `--audit` feeds it from the tracer, `audit_trace` feeds
//! files through it line by line, and the `verify.sh` gate diffs that
//! replay against the live in-process audit of the same run.
//!
//! **Bounded state.** The invariant battery carries O(active spans +
//! nodes + live jobs) ([`StreamChecker`]); the report accumulator buffers
//! only the *current* interval's spans and samples (folded into the
//! per-kind attribution when the interval closes), per-node maps, and the
//! fixed-size registry. Nothing holds a `Vec` of all events. The outputs
//! that are per-interval by nature (straggler rows, health snapshots)
//! grow with the interval count — that is the size of the report itself,
//! not a function of the event count.
//!
//! The attribution fold order is the record order: every span of
//! interval `k` precedes `sync_end k`, and the interval's samples are all
//! in hand by then, so folding at `sync_end` attributes each span with
//! its own interval's power — and any chunking of the stream gives the
//! same result bit for bit, float-addition order included.

use crate::invariants::StreamChecker;
use crate::json::Value;
use crate::metrics::{
    AuditReport, CriticalPath, LatencyStats, PartitionAttribution, PhaseAttribution, SyncStragglers,
};
use crate::registry::{named, Registry};
use obs::{Event, EventError, Tag, TraceEvent};
use std::collections::BTreeMap;

/// One run-health snapshot: the live state of the run at an interval or
/// epoch boundary, as seen by the streaming auditor.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHealth {
    /// Simulation time of the snapshot.
    pub t_ns: u64,
    /// What closed: `"sync"` (in-situ interval), `"epoch"` (machine
    /// scheduler division), or `"renorm"` (fleet envelope division).
    pub marker: &'static str,
    /// The interval/epoch index that closed.
    pub index: u64,
    /// Jobs started (or dispatched) and not yet terminal.
    pub jobs_running: u64,
    /// Machines currently up (1 for a single-machine trace, 0 in-situ).
    pub machines_up: u64,
    /// Watts currently allocated (last decision / epoch division / renorm).
    pub allocated_w: f64,
    /// The budget those watts were drawn from (power budget, machine
    /// envelope, or fleet envelope).
    pub budget_w: f64,
    /// Error-severity violations found so far.
    pub violations: u64,
}

impl RunHealth {
    /// One row of the run document's `health` section.
    pub fn to_value(&self) -> Value {
        obs::json_fields!(
            self,
            t_ns,
            marker,
            index,
            jobs_running,
            machines_up,
            allocated_w,
            budget_w,
            violations
        )
    }
}

/// Schema version stamped into `run_<bin>.json` (bumped on any layout
/// change so the differs can refuse cross-version comparisons; version 1
/// was the three separate `audit_`, `health_` and `metrics_` documents).
pub const RUN_SCHEMA_VERSION: u64 = 2;

/// Everything one streaming pass produces.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The audit report.
    pub report: AuditReport,
    /// Per-interval run-health snapshots, record order.
    pub health: Vec<RunHealth>,
    /// The live metrics registry (counters, gauges, histograms).
    pub registry: Registry,
}

impl StreamOutcome {
    /// The run document, `run_<bin>.json`: the report, the health series
    /// and the metrics registry as the sections of one versioned object.
    pub fn to_json(&self) -> String {
        Value::obj([
            ("schema_version", RUN_SCHEMA_VERSION.into()),
            ("report", self.report.to_value()),
            ("health", Value::Arr(self.health.iter().map(RunHealth::to_value).collect())),
            ("metrics", self.registry.to_value()),
        ])
        .pretty()
    }
}

/// The single-pass audit engine. Feed events, then
/// [`finish`](StreamAuditor::finish).
#[derive(Debug, Default)]
pub struct StreamAuditor {
    checker: StreamChecker,
    registry: Registry,
    events: u64,
    syncs: u64,
    open: Option<u64>,
    total_time_s: f64,
    total_energy_j: f64,
    /// Current interval's measured mean power, keyed (interval, node).
    cur_samples: BTreeMap<(u64, usize), f64>,
    /// Current interval's spans: (interval, node, kind, dur_s), record
    /// order. Spans outside any interval fold immediately instead.
    cur_spans: Vec<(u64, usize, Tag, f64)>,
    by_kind: BTreeMap<String, PhaseAttribution>,
    /// node -> partition tag (first seen).
    roles: BTreeMap<usize, Tag>,
    /// node -> whole-run energy (last write).
    node_energy: BTreeMap<usize, f64>,
    /// Pending per-interval rows awaiting their interval close.
    waits: BTreeMap<u64, (f64, f64)>,
    slowest: BTreeMap<u64, (f64, usize)>,
    rendezvous: BTreeMap<u64, (f64, f64, f64)>,
    stragglers: Vec<SyncStragglers>,
    critical_path: CriticalPath,
    overhead_sum: f64,
    // Live health state.
    health: Vec<RunHealth>,
    jobs_running: u64,
    machines_up: u64,
    allocated_w: f64,
    budget_w: f64,
    /// Open fleet renormalization group: (epoch, Σshare_w, last t_ns).
    renorm_group: Option<(u64, f64, u64)>,
}

impl StreamAuditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse one JSONL trace line (strictly: [`TraceEvent::parse_line`])
    /// and feed it. The caller decides whether a parse failure aborts.
    pub fn feed_line(&mut self, line: &str) -> Result<(), EventError> {
        self.feed(&TraceEvent::parse_line(line)?);
        Ok(())
    }

    /// Drain a straggler/critical-path row for every rendezvous with
    /// sync ≤ `up_to` (ascending), pruning the per-interval maps.
    fn drain_rendezvous(&mut self, up_to: u64) {
        while self.rendezvous.first_key_value().is_some_and(|(&s, _)| s <= up_to) {
            let (sync, (sim_t, ana_t, slack)) = self.rendezvous.pop_first().expect("nonempty");
            let (wait_total_s, wait_max_s) = self.waits.get(&sync).copied().unwrap_or((0.0, 0.0));
            self.stragglers.push(SyncStragglers {
                sync,
                sim_time_s: sim_t,
                analysis_time_s: ana_t,
                slack,
                wait_total_s,
                wait_max_s,
                slowest_node: self.slowest.get(&sync).map(|&(_, n)| n as u64),
            });
            if sim_t >= ana_t {
                self.critical_path.sim_limited_s += sim_t;
                self.critical_path.sim_limited_syncs += 1;
            } else {
                self.critical_path.analysis_limited_s += ana_t;
                self.critical_path.analysis_limited_syncs += 1;
            }
        }
        self.waits.retain(|&k, _| k > up_to);
        self.slowest.retain(|&k, _| k > up_to);
    }

    /// Fold the closed interval's spans into the per-kind attribution, in
    /// record order, each at its node's sampled power in its interval.
    fn fold_spans(&mut self) {
        let _t = obs::profile::timer("audit.fold_spans");
        for (interval, node, kind, dur) in self.cur_spans.drain(..) {
            let a = named(&mut self.by_kind, &kind, || PhaseAttribution {
                kind: kind.to_string(),
                spans: 0,
                time_s: 0.0,
                energy_j: 0.0,
            });
            a.spans += 1;
            a.time_s += dur;
            if let Some(w) = self.cur_samples.get(&(interval, node)) {
                a.energy_j += w * dur;
            }
        }
        self.cur_samples.clear();
    }

    fn close_renorm_group(&mut self) {
        if let Some((epoch, share_sum, t_ns)) = self.renorm_group.take() {
            self.allocated_w = share_sum;
            self.registry.gauge("allocated_w").set(t_ns, share_sum);
            self.snapshot(t_ns, "renorm", epoch);
        }
    }

    fn snapshot(&mut self, t_ns: u64, marker: &'static str, index: u64) {
        let row = RunHealth {
            t_ns,
            marker,
            index,
            jobs_running: self.jobs_running,
            machines_up: self.machines_up,
            allocated_w: self.allocated_w,
            budget_w: self.budget_w,
            violations: self.checker.errors_so_far(),
        };
        self.health.push(row);
    }

    /// Feed one event: invariants, metrics, attribution, health. The one
    /// entry for live, tapped and parsed events alike: the event is
    /// audited in its wire form, so a live `inf` yields the findings its
    /// serialized `null` would.
    pub fn feed(&mut self, ev: &TraceEvent) {
        let ev = &*ev.wire_form();
        let t_ns = ev.t.as_nanos();
        self.checker.feed(ev);
        self.events += 1;
        self.registry.counter("events").inc();
        if self.renorm_group.is_some() && !matches!(ev.ev, Event::EnvelopeRenorm { .. }) {
            self.close_renorm_group();
        }
        match &ev.ev {
            Event::SyncStart { sync } => {
                self.open = Some(*sync);
                self.syncs += 1;
                self.registry.counter("syncs").inc();
            }
            Event::SyncEnd { sync, overhead_s } => {
                self.open = None;
                if overhead_s.is_finite() {
                    self.overhead_sum += *overhead_s;
                }
                self.fold_spans();
                self.drain_rendezvous(*sync);
                self.registry.gauge("jobs_running").set(t_ns, self.jobs_running as f64);
                self.snapshot(t_ns, "sync", *sync);
            }
            Event::Phase { node, kind, start_ns, end_ns } => {
                let dur = end_ns.saturating_sub(*start_ns) as f64 / 1e9;
                self.registry.histogram("phase_ns").observe(end_ns.saturating_sub(*start_ns));
                let entry = (self.open.unwrap_or(0), *node, kind.clone(), dur);
                if self.open.is_some() {
                    self.cur_spans.push(entry);
                } else {
                    self.cur_spans.push(entry);
                    self.fold_spans();
                }
            }
            Event::Wait { node, start_ns, end_ns } => {
                let dur = end_ns.saturating_sub(*start_ns) as f64 / 1e9;
                self.registry.histogram("wait_ns").observe(end_ns.saturating_sub(*start_ns));
                let entry = (self.open.unwrap_or(0), *node, Tag::Borrowed("wait"), dur);
                if self.open.is_some() {
                    self.cur_spans.push(entry);
                } else {
                    self.cur_spans.push(entry);
                    self.fold_spans();
                }
                let w = self.waits.entry(self.open.unwrap_or(0)).or_insert((0.0, 0.0));
                w.0 += dur;
                w.1 = w.1.max(dur);
            }
            Event::Sample { node, role, power_w, .. } => {
                self.registry.counter("samples").inc();
                if let Some(k) = self.open {
                    if power_w.is_finite() {
                        self.cur_samples.insert((k, *node), *power_w);
                    }
                }
                if !self.roles.contains_key(node) {
                    self.roles.insert(*node, role.clone());
                }
            }
            Event::Arrival { sync, node, role, time_s } => {
                if !self.roles.contains_key(node) {
                    self.roles.insert(*node, role.clone());
                }
                let e = self.slowest.entry(*sync).or_insert((f64::NEG_INFINITY, 0));
                if *time_s > e.0 {
                    *e = (*time_s, *node);
                }
            }
            Event::Rendezvous { sync, sim_time_s, analysis_time_s, slack } => {
                self.rendezvous.insert(*sync, (*sim_time_s, *analysis_time_s, *slack));
            }
            Event::NodeEnergy { node, energy_j } => {
                self.node_energy.insert(*node, *energy_j);
            }
            Event::RunEnd { total_time_s: t, total_energy_j: e } => {
                self.total_time_s = *t;
                self.total_energy_j = *e;
            }
            Event::CapRequest { effective_ns, .. } => {
                if *effective_ns > t_ns {
                    self.registry
                        .histogram("cap_actuation_latency_ns")
                        .observe(effective_ns - t_ns);
                } else {
                    self.registry.counter("cap_immediate").inc();
                }
            }
            Event::RunStart { budget_w, .. } => {
                self.budget_w = *budget_w;
                self.registry.gauge("budget_w").set(t_ns, *budget_w);
            }
            Event::BudgetRenormalized { budget_w } => {
                self.budget_w = *budget_w;
                self.registry.gauge("budget_w").set(t_ns, *budget_w);
            }
            Event::Decision(d) => {
                let total =
                    d.sim_node_w * d.sim_nodes as f64 + d.analysis_node_w * d.analysis_nodes as f64;
                self.allocated_w = total;
                self.registry.gauge("allocated_w").set(t_ns, total);
            }
            Event::Fault { .. } => self.registry.counter("faults").inc(),
            Event::Recovery { .. } => self.registry.counter("recoveries").inc(),
            Event::MachineStart { envelope_w, .. } => {
                self.machines_up = 1;
                self.budget_w = *envelope_w;
                self.registry.gauge("budget_w").set(t_ns, *envelope_w);
            }
            Event::MachineBudget { epoch, allocated_w, pool_w: _ } => {
                self.allocated_w = *allocated_w;
                self.registry.gauge("allocated_w").set(t_ns, *allocated_w);
                self.registry.gauge("jobs_running").set(t_ns, self.jobs_running as f64);
                self.snapshot(t_ns, "epoch", *epoch);
            }
            Event::JobStarted { .. } | Event::JobDispatched { .. } => {
                self.jobs_running += 1;
            }
            Event::JobCompleted { .. }
            | Event::JobKilled { .. }
            | Event::JobRetry { .. }
            | Event::JobFailed { .. } => {
                self.jobs_running = self.jobs_running.saturating_sub(1);
            }
            Event::FleetStart { machines, envelope_w, .. } => {
                self.machines_up = *machines as u64;
                self.budget_w = *envelope_w;
                self.registry.gauge("budget_w").set(t_ns, *envelope_w);
            }
            Event::MachineDown { .. } => {
                self.machines_up = self.machines_up.saturating_sub(1);
            }
            Event::MachineUp { .. } => self.machines_up += 1,
            Event::EnvelopeRenorm { epoch, share_w, .. } => {
                match &mut self.renorm_group {
                    Some((e, sum, t)) if *e == *epoch => {
                        *sum += share_w;
                        *t = t_ns;
                    }
                    _ => {
                        // Epoch change: the is_some guard above only fires
                        // for non-renorm events, so close here.
                        self.close_renorm_group();
                        self.renorm_group = Some((*epoch, *share_w, t_ns));
                    }
                }
            }
            _ => {}
        }
    }

    /// Flush end-of-stream state and produce the report, the health
    /// series, and the metrics registry.
    pub fn finish(mut self) -> StreamOutcome {
        self.close_renorm_group();
        self.fold_spans();
        self.drain_rendezvous(u64::MAX);
        self.critical_path.overhead_s = self.overhead_sum;

        let immediate = self.registry.counter_value("cap_immediate");
        let cap_latency = match self.registry.get_histogram("cap_actuation_latency_ns") {
            Some(h) if h.count > 0 => LatencyStats {
                count: h.count,
                immediate,
                min_s: h.min_ns as f64 / 1e9,
                max_s: h.max_ns as f64 / 1e9,
                mean_s: h.mean_ns() / 1e9,
                p95_s: h.quantile_ns(0.95) as f64 / 1e9,
            },
            _ => LatencyStats { immediate, ..LatencyStats::default() },
        };

        let mut partitions: BTreeMap<String, PartitionAttribution> = BTreeMap::new();
        for (node, role) in &self.roles {
            let p = partitions.entry(role.to_string()).or_insert_with(|| PartitionAttribution {
                role: role.to_string(),
                nodes: 0,
                energy_j: 0.0,
            });
            p.nodes += 1;
            p.energy_j += self.node_energy.get(node).copied().unwrap_or(0.0);
        }

        let report = AuditReport {
            events: self.events,
            syncs: self.syncs,
            total_time_s: self.total_time_s,
            total_energy_j: self.total_energy_j,
            violations: self.checker.finish(),
            phases: self.by_kind.into_values().collect(),
            partitions: partitions.into_values().collect(),
            stragglers: self.stragglers,
            critical_path: self.critical_path,
            cap_latency,
        };
        StreamOutcome { report, health: self.health, registry: self.registry }
    }
}

impl obs::EventSubscriber for StreamAuditor {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.feed(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        use Event as K;
        let ev = |t_ns, ev| TraceEvent { t: des::SimTime::from_nanos(t_ns), ev };
        vec![
            ev(
                0,
                K::RunStart {
                    sim_nodes: 12,
                    analysis_nodes: 4,
                    budget_w: 1760.0,
                    min_cap_w: 98.0,
                    max_cap_w: 215.0,
                    actuation_ns: 10_000_000,
                },
            ),
            ev(0, K::SyncStart { sync: 1 }),
            ev(0, K::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 5_000 }),
            ev(5_000, K::Wait { node: 0, start_ns: 5_000, end_ns: 8_000 }),
            ev(
                8_000,
                K::Sample {
                    node: 0,
                    role: "sim".into(),
                    time_s: 1.0,
                    power_w: 110.0,
                    cap_w: 115.0,
                },
            ),
            ev(8_000, K::Rendezvous { sync: 1, sim_time_s: 2.0, analysis_time_s: 1.0, slack: 0.5 }),
            ev(10_000, K::SyncEnd { sync: 1, overhead_s: 0.25 }),
            ev(10_000, K::SyncEnergy { sync: 1, energy_j: 42.0 }),
            ev(10_000, K::NodeEnergy { node: 0, energy_j: 42.0 }),
            ev(10_000, K::RunEnd { total_time_s: 1e-5, total_energy_j: 42.0 }),
        ]
    }

    fn sample_lines() -> Vec<String> {
        sample_events().iter().map(TraceEvent::to_json_line).collect()
    }

    /// The whole event list fed at once, in memory, and its serialized
    /// lines streamed one by one give the same run document.
    #[test]
    fn streamed_report_is_byte_identical_to_batch() {
        let batch = crate::audited(&sample_events());
        let mut auditor = StreamAuditor::new();
        for line in &sample_lines() {
            auditor.feed_line(line).expect("clean line");
        }
        let out = auditor.finish();
        assert_eq!(out.to_json(), batch.to_json());
        assert_eq!(out.report, batch.report);
    }

    #[test]
    fn health_snapshots_track_the_run() {
        let lines = sample_lines();
        let mut auditor = StreamAuditor::new();
        for line in &lines {
            auditor.feed_line(line).expect("clean line");
        }
        let out = auditor.finish();
        assert_eq!(out.health.len(), 1);
        let h = &out.health[0];
        assert_eq!(h.marker, "sync");
        assert_eq!(h.index, 1);
        assert_eq!(h.budget_w, 1760.0);
        assert_eq!(h.violations, 0);
        let v = crate::json::parse(&out.to_json()).expect("run document parses");
        assert_eq!(v.get("schema_version").and_then(Value::as_u64), Some(RUN_SCHEMA_VERSION));
        assert_eq!(v.get("health").and_then(Value::as_arr).map(<[_]>::len), Some(1));
    }

    #[test]
    fn registry_reflects_the_stream() {
        let lines = sample_lines();
        let mut auditor = StreamAuditor::new();
        for line in &lines {
            auditor.feed_line(line).expect("clean line");
        }
        let out = auditor.finish();
        assert_eq!(out.registry.counter_value("events"), lines.len() as u64);
        assert_eq!(out.registry.counter_value("syncs"), 1);
        assert_eq!(out.registry.counter_value("samples"), 1);
        assert_eq!(out.registry.gauge_value("budget_w"), Some(1760.0));
        let phases = out.registry.get_histogram("phase_ns").expect("phase histogram");
        assert_eq!(phases.count, 1);
        assert_eq!(phases.min_ns, 5_000);
    }

    #[test]
    fn malformed_line_is_reported_not_swallowed() {
        let mut auditor = StreamAuditor::new();
        let err = auditor.feed_line("{\"not\": \"a trace line\"}");
        assert!(err.is_err());
        // The auditor is still usable: the caller decides whether to stop.
        auditor.feed_line("{\"t\":0,\"ev\":\"sync_start\",\"sync\":1}").expect("valid line");
        let out = auditor.finish();
        assert_eq!(out.report.events, 1);
    }

    #[test]
    fn chunked_and_one_shot_feeds_agree() {
        let lines = sample_lines();
        let feed_all = |chunk: usize| {
            let mut auditor = StreamAuditor::new();
            for batch in lines.chunks(chunk) {
                for line in batch {
                    auditor.feed_line(line).expect("clean line");
                }
            }
            auditor.finish().to_json()
        };
        let one_shot = feed_all(lines.len());
        for chunk in [1, 2, 3] {
            assert_eq!(feed_all(chunk), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn live_subscriber_matches_file_replay() {
        use obs::{Event, Tracer};
        use std::sync::{Arc, Mutex};
        let auditor = Arc::new(Mutex::new(StreamAuditor::new()));
        let tracer = Tracer::enabled();
        tracer.attach(Box::new(Arc::clone(&auditor)));
        tracer.emit(Event::SyncStart { sync: 1 });
        tracer.set_now(des::SimTime::from_nanos(10));
        tracer.emit(Event::SyncEnd { sync: 1, overhead_s: 0.125 });
        let jsonl = tracer.to_jsonl();
        drop(tracer); // release the tracer's subscriber handle

        let live = Arc::try_unwrap(auditor).expect("sole owner").into_inner().unwrap().finish();
        let mut replay = StreamAuditor::new();
        for line in jsonl.lines() {
            replay.feed_line(line).expect("clean line");
        }
        let replayed = replay.finish();
        assert_eq!(live.to_json(), replayed.to_json());
        assert_eq!(live.health, replayed.health);
    }

    /// The wire form of `±inf` is `null`, which reads back as NaN, and the
    /// battery tells the two apart (`total <= inf` holds, `total <= NaN`
    /// does not; details print the value). A live event carrying `inf`
    /// must therefore be judged as its serialized line will be.
    #[test]
    fn live_non_finite_floats_audit_like_their_serialized_lines() {
        use obs::DecisionInfo;
        let events = [
            Event::RunStart {
                sim_nodes: 12,
                analysis_nodes: 4,
                budget_w: 1760.0,
                min_cap_w: 98.0,
                max_cap_w: 215.0,
                actuation_ns: 10_000_000,
            },
            Event::BudgetRenormalized { budget_w: f64::INFINITY },
            Event::SyncStart { sync: 1 },
            Event::Decision(Box::new(DecisionInfo {
                sync: 0,
                sim_nodes: 12,
                analysis_nodes: 4,
                alpha_sim: 1.0,
                alpha_analysis: 1.0,
                p_opt_sim_w: 1320.0,
                p_opt_analysis_w: 440.0,
                blend_sim_w: 1320.0,
                blend_analysis_w: 440.0,
                sim_node_w: 110.0,
                analysis_node_w: 110.0,
                clamped: false,
            })),
            Event::Rendezvous {
                sync: 1,
                sim_time_s: 1.5,
                analysis_time_s: f64::NAN,
                slack: f64::NEG_INFINITY,
            },
            Event::SyncEnd { sync: 1, overhead_s: 0.0 },
            Event::SyncEnergy { sync: 1, energy_j: f64::INFINITY },
            Event::Fault { sync: 1, node: 4, tag: "straggler".into() },
        ];
        let events: Vec<TraceEvent> = (0..)
            .zip(events)
            .map(|(i, ev)| TraceEvent { t: des::SimTime::from_nanos(i), ev })
            .collect();

        let mut live = StreamAuditor::new();
        let mut replay = StreamAuditor::new();
        for te in &events {
            obs::EventSubscriber::on_event(&mut live, te);
            replay.feed_line(&te.to_json_line()).expect("emitter output parses");
        }
        let (live, replay) = (live.finish(), replay.finish());
        assert_eq!(live.to_json(), replay.to_json());
        assert_eq!(live.report.violations, replay.report.violations);
        let details: Vec<&str> = live.report.violations.iter().map(|v| &*v.detail).collect();
        assert!(details.iter().any(|d| d.contains("budget is not a power: NaN")), "{details:?}");
        assert!(details.iter().any(|d| d.contains("exceeds budget")), "{details:?}");
        assert!(details.iter().any(|d| d.contains("energy is not physical: NaN")), "{details:?}");
        // And so does the tracer's buffer, audited after the run.
        let tracer = obs::Tracer::enabled();
        for te in &events {
            tracer.set_now(te.t);
            tracer.emit(te.ev.clone());
        }
        assert_eq!(crate::audited(&tracer.events()).to_json(), replay.to_json());
    }

    /// Seeded mutations of valid lines of every variant: the strict reader
    /// answers `Ok` or an `EventError` (what `audit_trace` reports
    /// as `AUDIT0013`) and never panics, the auditor survives whatever was
    /// accepted, and everything accepted can be written and read again.
    /// Mutations that spell every value canonically must come back
    /// byte-for-byte; a byte flip may leave a number in a spelling the
    /// reader accepts and the writer would not choose (`0.120`, `1 `).
    #[test]
    fn mutated_lines_never_panic_the_reader_or_the_auditor() {
        let lines: Vec<String> =
            TraceEvent::one_of_each().iter().map(TraceEvent::to_json_line).collect();
        // Values a field may be swapped for, each in the writer's spelling:
        // every wire type, `null`, and integers past i64::MAX and past
        // u64::MAX (which only a float field takes, as 2^63 and 2^64).
        const VALUES: [&str; 9] = [
            "7",
            "0.5",
            "-3",
            "true",
            "null",
            "\"sim\"",
            "9223372036854776000",
            "18446744073709552000",
            "[{\"k\":[]}]",
        ];
        let mut accepted = 0;
        for seed in [1, 7] {
            let mut rng = des::rng::Rng::seed_from_u64(seed);
            let mut below = |n: usize| rng.next_below(n as u64) as usize;
            for _ in 0..40 {
                for line in &lines {
                    // Split `{f0,f1,…}` into its top-level fields (no sample
                    // value contains a comma).
                    let mut fields: Vec<String> =
                        line[1..line.len() - 1].split(',').map(String::from).collect();
                    let (i, j) = (below(fields.len()), below(fields.len()));
                    let mut canonical = true;
                    let mutated = match below(8) {
                        0 => line[..below(line.len())].to_string(),
                        1 => {
                            canonical = false;
                            let mut bytes = line.clone().into_bytes();
                            let at = below(bytes.len());
                            bytes[at] = below(128) as u8;
                            String::from_utf8(bytes).expect("ASCII stays UTF-8")
                        }
                        2 => format!("{}{line}{}", "[".repeat(100_000), "]".repeat(100_000)),
                        kind => {
                            match kind {
                                3 => fields.swap(i, j),
                                4 => fields.insert(i, fields[j].clone()),
                                5 => drop(fields.remove(i)),
                                _ => {
                                    let (key, _) = fields[i].split_once(':').expect("key:value");
                                    fields[i] = format!("{key}:{}", VALUES[below(VALUES.len())]);
                                }
                            }
                            format!("{{{}}}", fields.join(","))
                        }
                    };
                    let mut auditor = StreamAuditor::new();
                    let fed = auditor.feed_line(&mutated);
                    let parsed = TraceEvent::parse_line(&mutated);
                    assert_eq!(fed.is_ok(), parsed.is_ok(), "{mutated}");
                    auditor.finish();
                    let Ok(ev) = parsed else { continue };
                    accepted += 1;
                    let rewritten = ev.to_json_line();
                    if canonical {
                        assert_eq!(rewritten, mutated);
                    }
                    let again = TraceEvent::parse_line(&rewritten).expect("writer output parses");
                    assert_eq!(again.to_json_line(), rewritten, "from {mutated}");
                }
            }
        }
        assert!(accepted > 100, "the mutations must also exercise the accepting path");
    }
}
