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
//! **Bounded state.** The invariant battery and the ledger of protocol
//! state it reads carry O(active spans + nodes + live jobs); the report
//! accumulator buffers only the *current* interval's spans and samples
//! (folded into the per-kind attribution when the interval closes),
//! per-node columns, and the fixed-slot registry. Nothing holds a `Vec`
//! of all events. The outputs that are per-interval by nature (straggler
//! rows, health snapshots) grow with the interval count — that is the
//! size of the report itself, not a function of the event count.
//!
//! **Columns, not maps.** Per-node state (each node's role, its energy,
//! the open interval's sampled power) is a column indexed by node id,
//! sized once from the first `run_start`'s node count, capped at
//! [`MAX_COLUMN_NODES`](crate::column::MAX_COLUMN_NODES) whatever the
//! trace claims. An id outside the column, or a node's sample in a second
//! open interval, spills into an ordered map, so a damaged trace costs
//! speed, never a wrong answer. Phase attribution is a small table in
//! first-seen order, resolved once per span and sorted by kind name only
//! in [`finish`](StreamAuditor::finish).
//!
//! The attribution fold order is the record order: every span of
//! interval `k` precedes `sync_end k`, and the interval's samples are all
//! in hand by then, so folding at `sync_end` attributes each span with
//! its own interval's power — and any chunking of the stream gives the
//! same result bit for bit, float-addition order included.

use crate::column::{column_len, NodeColumn};
use crate::invariants::StreamChecker;
use crate::json::Value;
use crate::ledger::RenormGroup;
use crate::metrics::{
    AuditReport, CriticalPath, LatencyStats, PartitionAttribution, PhaseAttribution, SyncStragglers,
};
use crate::registry::{CounterId as C, GaugeId as G, HistogramId as H, Registry};
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

/// The open intervals' sampled power: one slot per node for the first
/// interval it is sampled in, a map for any other. A slot is live while
/// its generation is the current one, so clearing is one increment.
#[derive(Debug, Default)]
struct IntervalSamples {
    /// Per node: (generation, interval, watts).
    col: Vec<(u64, u64, f64)>,
    spill: BTreeMap<(u64, usize), f64>,
    /// The live generation (slots start at 0, which is never live).
    generation: u64,
}

impl IntervalSamples {
    /// Size the column to `len` nodes (the first call that has any).
    fn size(&mut self, len: usize) {
        if self.col.is_empty() {
            self.col = vec![(0, 0, 0.0); len];
            self.generation += 1;
        }
    }

    /// Node `node`'s power in interval `k` is `w` (last write wins).
    fn insert(&mut self, k: u64, node: usize, w: f64) {
        if let Some(slot) = self.col.get_mut(node) {
            if slot.0 != self.generation || slot.1 == k {
                *slot = (self.generation, k, w);
                return;
            }
        }
        self.spill.insert((k, node), w);
    }

    fn get(&self, k: u64, node: usize) -> Option<f64> {
        match self.col.get(node) {
            Some(&(g, slot_k, w)) if g == self.generation && slot_k == k => Some(w),
            _ => self.spill.get(&(k, node)).copied(),
        }
    }

    fn clear(&mut self) {
        self.generation += 1;
        self.spill.clear();
    }
}

/// The single-pass audit engine. Feed events, then
/// [`finish`](StreamAuditor::finish).
#[derive(Debug, Default)]
pub struct StreamAuditor {
    /// The battery, and the ledger of protocol state the report also reads.
    checker: StreamChecker,
    registry: Registry,
    /// The open intervals' measured mean power, by (interval, node).
    cur_samples: IntervalSamples,
    /// Current interval's spans: (interval, node, kind index, dur_s),
    /// record order. Spans outside any interval fold immediately instead.
    cur_spans: Vec<(u64, usize, usize, f64)>,
    /// Per-kind attribution in first-seen order, with the tag it was
    /// first seen as.
    kinds: Vec<(Tag, PhaseAttribution)>,
    /// node -> partition tag (first seen).
    roles: NodeColumn<Tag>,
    /// node -> whole-run energy (last write).
    node_energy: NodeColumn<f64>,
    /// Pending per-interval rows awaiting their interval close.
    waits: BTreeMap<u64, (f64, f64)>,
    slowest: BTreeMap<u64, (f64, usize)>,
    rendezvous: BTreeMap<u64, (f64, f64, f64)>,
    stragglers: Vec<SyncStragglers>,
    critical_path: CriticalPath,
    overhead_sum: f64,
    health: Vec<RunHealth>,
    /// Watts allocated by the last decision, epoch division or renorm.
    allocated_w: f64,
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

    /// The attribution-table index of phase kind `kind`, added on first
    /// sight. A tag is usually the same static string as the one the
    /// table holds, so a pointer compare finds it before any string does.
    fn kind(&mut self, kind: &Tag) -> usize {
        let same = |(t, _): &(Tag, PhaseAttribution)| std::ptr::eq(&**t, &**kind);
        let equal = |(t, _): &(Tag, PhaseAttribution)| **t == **kind;
        if let Some(i) =
            self.kinds.iter().position(same).or_else(|| self.kinds.iter().position(equal))
        {
            return i;
        }
        let a = PhaseAttribution { kind: kind.to_string(), spans: 0, time_s: 0.0, energy_j: 0.0 };
        self.kinds.push((kind.clone(), a));
        self.kinds.len() - 1
    }

    /// Fold the closed interval's spans into the per-kind attribution, in
    /// record order, each at its node's sampled power in its interval.
    fn fold_spans(&mut self) {
        for (interval, node, kind, dur) in self.cur_spans.drain(..) {
            let a = &mut self.kinds[kind].1;
            a.spans += 1;
            a.time_s += dur;
            if let Some(w) = self.cur_samples.get(interval, node) {
                a.energy_j += w * dur;
            }
        }
        self.cur_samples.clear();
    }

    /// A renormalization group closed: its shares are what is allocated.
    fn close_renorm(&mut self, g: RenormGroup) {
        self.allocated_w = g.share_w;
        self.registry.gauge(G::AllocatedW).set(g.t_ns, g.share_w);
        self.snapshot(g.t_ns, "renorm", g.epoch);
    }

    fn snapshot(&mut self, t_ns: u64, marker: &'static str, index: u64) {
        let violations = self.checker.errors_so_far();
        let l = &self.checker.ledger;
        let row = RunHealth {
            t_ns,
            marker,
            index,
            jobs_running: l.jobs_running,
            machines_up: l.machines_up,
            allocated_w: self.allocated_w,
            budget_w: l.budget_w,
            violations,
        };
        self.health.push(row);
    }

    /// Feed one event: invariants, metrics, attribution, health. The one
    /// entry for live, tapped and parsed events alike: the event is
    /// audited in its wire form, so a live `inf` yields the findings its
    /// serialized `null` would.
    ///
    /// The battery judges the event against the ledger as it stood
    /// before it (closing any renormalization group the event ends, whose
    /// health row reads that same state and counts this event's
    /// findings); then the ledger applies the event and the report folds
    /// it.
    pub fn feed(&mut self, ev: &TraceEvent) {
        let ev = &*ev.wire_form();
        let t_ns = ev.t.as_nanos();
        if let Some(g) = self.checker.judge(ev) {
            self.close_renorm(g);
        }
        self.checker.ledger.apply(ev);
        self.registry.counter(C::Events).inc();
        let open = self.checker.ledger.open.map(|(k, _)| k);
        match &ev.ev {
            Event::SyncStart { .. } => self.registry.counter(C::Syncs).inc(),
            Event::SyncEnd { sync, overhead_s } => {
                if overhead_s.is_finite() {
                    self.overhead_sum += *overhead_s;
                }
                self.fold_spans();
                self.drain_rendezvous(*sync);
                let running = self.checker.ledger.jobs_running as f64;
                self.registry.gauge(G::JobsRunning).set(t_ns, running);
                self.snapshot(t_ns, "sync", *sync);
            }
            Event::Phase { node, kind, start_ns, end_ns } => {
                let dur = end_ns.saturating_sub(*start_ns) as f64 / 1e9;
                self.registry.histogram(H::Phase).observe(end_ns.saturating_sub(*start_ns));
                let kind = self.kind(kind);
                self.cur_spans.push((open.unwrap_or(0), *node, kind, dur));
                if open.is_none() {
                    self.fold_spans();
                }
            }
            Event::Wait { node, start_ns, end_ns } => {
                let dur = end_ns.saturating_sub(*start_ns) as f64 / 1e9;
                self.registry.histogram(H::Wait).observe(end_ns.saturating_sub(*start_ns));
                let kind = self.kind(&Tag::Borrowed("wait"));
                self.cur_spans.push((open.unwrap_or(0), *node, kind, dur));
                if open.is_none() {
                    self.fold_spans();
                }
                let w = self.waits.entry(open.unwrap_or(0)).or_insert((0.0, 0.0));
                w.0 += dur;
                w.1 = w.1.max(dur);
            }
            Event::Sample { node, role, power_w, .. } => {
                self.registry.counter(C::Samples).inc();
                if let Some(k) = open {
                    if power_w.is_finite() {
                        self.cur_samples.insert(k, *node, *power_w);
                    }
                }
                self.roles.get_or_insert_with(*node, || role.clone());
            }
            Event::Arrival { sync, node, role, time_s } => {
                self.roles.get_or_insert_with(*node, || role.clone());
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
            Event::CapRequest { effective_ns, .. } => {
                if *effective_ns > t_ns {
                    self.registry.histogram(H::CapActuationLatency).observe(effective_ns - t_ns);
                } else {
                    self.registry.counter(C::CapImmediate).inc();
                }
            }
            Event::RunStart { sim_nodes, analysis_nodes, .. } => {
                let len = column_len(*sim_nodes, *analysis_nodes);
                self.roles.size(len);
                self.node_energy.size(len);
                self.cur_samples.size(len);
                self.registry.gauge(G::BudgetW).set(t_ns, self.checker.ledger.budget_w);
            }
            Event::BudgetRenormalized { .. }
            | Event::MachineStart { .. }
            | Event::FleetStart { .. } => {
                self.registry.gauge(G::BudgetW).set(t_ns, self.checker.ledger.budget_w);
            }
            Event::Decision(d) => {
                let total =
                    d.sim_node_w * d.sim_nodes as f64 + d.analysis_node_w * d.analysis_nodes as f64;
                self.allocated_w = total;
                self.registry.gauge(G::AllocatedW).set(t_ns, total);
            }
            Event::Fault { .. } => self.registry.counter(C::Faults).inc(),
            Event::Recovery { .. } => self.registry.counter(C::Recoveries).inc(),
            Event::MachineBudget { epoch, allocated_w, pool_w: _ } => {
                self.allocated_w = *allocated_w;
                self.registry.gauge(G::AllocatedW).set(t_ns, *allocated_w);
                let running = self.checker.ledger.jobs_running as f64;
                self.registry.gauge(G::JobsRunning).set(t_ns, running);
                self.snapshot(t_ns, "epoch", *epoch);
            }
            _ => {}
        }
    }

    /// Flush end-of-stream state and produce the report, the health
    /// series, and the metrics registry.
    pub fn finish(mut self) -> StreamOutcome {
        // The last group's row counts the findings so far, not the
        // end-of-stream ones; the battery judges the group at finish.
        if let Some(g) = self.checker.ledger.renorm {
            self.close_renorm(g);
        }
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
        for (node, role) in self.roles.iter() {
            let p = partitions.entry(role.to_string()).or_insert_with(|| PartitionAttribution {
                role: role.to_string(),
                nodes: 0,
                energy_j: 0.0,
            });
            p.nodes += 1;
            p.energy_j += self.node_energy.get(node).copied().unwrap_or(0.0);
        }

        let l = &self.checker.ledger;
        let report = AuditReport {
            events: l.events,
            syncs: self.registry.counter_value("syncs"),
            total_time_s: l.run_end.map_or(0.0, |r| r.time_s),
            total_energy_j: l.run_end.map_or(0.0, |r| r.energy_j),
            violations: self.checker.finish(),
            phases: {
                self.kinds.sort_by(|(a, _), (b, _)| a.cmp(b));
                self.kinds.into_iter().map(|(_, a)| a).collect()
            },
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
        // every wire type, `null`, an integer past i64::MAX (which an
        // integer field reads exactly) and one past u64::MAX (which only a
        // float field takes, as 2^64).
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
