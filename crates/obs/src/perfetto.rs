//! Chrome-trace (Perfetto) export.
//!
//! Renders a recorded trace as the JSON object format understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>. Each node is a process
//! row, and a synthetic "controller" row sorts after them. Timestamps are
//! microseconds of **simulated** time, so the export is as deterministic
//! as the trace itself.
//!
//! Only what has a timeline shape is drawn as one:
//!
//! - `phase` and `wait` are spans on their node's row;
//! - `cap_request` (`cap_w`, at the actuation-effective time) and `sample`
//!   (`power_w`) are node counters;
//! - `sync_energy` (`sync_energy_j`), `machine_budget` (`allocated_w`,
//!   `pool_w`) and `budget_renormalized` (`budget_w`) are controller
//!   counters, and a derived `jobs_running` gauge steps +1 on a job start
//!   or dispatch and −1 on a completion, kill, retry or failure.
//!
//! `arrival` and `node_energy` are left out. Every other event, the
//! renormalization and the job events included, is one instant named by
//! its JSONL tag, whose `args` are the event's own fields as the schema's
//! writer prints them. `fault`, `recovery`, `node_excluded` and
//! `sample_rejected` sit on their node's row, the rest on the controller
//! row. A new schema row is therefore exported without an edit here.

use crate::event::{Event, TraceEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Synthetic pid of the controller row, far above any plausible node id
/// so node rows sort first.
const CONTROLLER_PID: usize = 1_000_000;

/// One rendered trace entry plus its sort key.
struct Entry {
    ts_ns: u64,
    pid: usize,
    json: String,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The entries rendered so far, in emission order.
struct Timeline(Vec<Entry>);

impl Timeline {
    /// Start an entry with the keys every kind shares; the caller appends
    /// the rest and the closing brace.
    fn open(&mut self, name: &str, ph: &str, pid: usize, ts_ns: u64) -> &mut String {
        let mut json = String::with_capacity(128);
        let ts = us(ts_ns);
        let _ = write!(
            json,
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":0,\"ts\":{ts}"
        );
        let i = self.0.len();
        self.0.push(Entry { ts_ns, pid, json });
        &mut self.0[i].json
    }

    fn span(&mut self, name: &str, pid: usize, start_ns: u64, end_ns: u64) {
        let dur = us(end_ns.saturating_sub(start_ns));
        let _ = write!(self.open(name, "X", pid, start_ns), ",\"dur\":{dur}}}");
    }

    /// One counter sample; a non-finite value reads as 0.
    fn counter(&mut self, name: &str, pid: usize, ts_ns: u64, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.open(name, "C", pid, ts_ns), ",\"args\":{{\"{name}\":{v}}}}}");
    }

    /// The event as an instant: its tag, and its fields as `args`.
    fn instant(&mut self, ev: &Event, pid: usize, ts_ns: u64) {
        let json = self.open(ev.tag(), "i", pid, ts_ns);
        json.push_str(",\"s\":\"p\",\"args\":{");
        let fields = json.len();
        ev.write_fields(json);
        // The writer puts a comma before every field, the first included.
        if json[fields..].starts_with(',') {
            json.remove(fields);
        }
        json.push_str("}}");
    }
}

/// Render `events` as a Chrome-trace JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut t = Timeline(Vec::with_capacity(events.len()));
    let mut jobs_running: u64 = 0;
    for te in events {
        let t_ns = te.t.as_nanos();
        match &te.ev {
            Event::Phase { node, kind, start_ns, end_ns } => {
                t.span(kind, *node, *start_ns, *end_ns)
            }
            Event::Wait { node, start_ns, end_ns } => t.span("wait", *node, *start_ns, *end_ns),
            Event::CapRequest { node, granted_w, effective_ns, .. } => {
                t.counter("cap_w", *node, *effective_ns, *granted_w)
            }
            Event::Sample { node, power_w, .. } => t.counter("power_w", *node, t_ns, *power_w),
            Event::SyncEnergy { energy_j, .. } => {
                t.counter("sync_energy_j", CONTROLLER_PID, t_ns, *energy_j)
            }
            Event::MachineBudget { allocated_w, pool_w, .. } => {
                t.counter("allocated_w", CONTROLLER_PID, t_ns, *allocated_w);
                t.counter("pool_w", CONTROLLER_PID, t_ns, *pool_w);
            }
            // Arrivals are covered by the per-node wait spans and the
            // rendezvous instants; a node's whole-run energy is one scalar
            // with no timeline shape.
            Event::Arrival { .. } | Event::NodeEnergy { .. } => {}
            ev => {
                let pid = match ev {
                    Event::Fault { node, .. }
                    | Event::Recovery { node, .. }
                    | Event::NodeExcluded { node }
                    | Event::SampleRejected { node } => *node,
                    _ => CONTROLLER_PID,
                };
                t.instant(ev, pid, t_ns);
                jobs_running = match ev {
                    Event::JobStarted { .. } | Event::JobDispatched { .. } => jobs_running + 1,
                    Event::JobCompleted { .. }
                    | Event::JobKilled { .. }
                    | Event::JobRetry { .. }
                    | Event::JobFailed { .. } => jobs_running.saturating_sub(1),
                    Event::BudgetRenormalized { budget_w } => {
                        t.counter("budget_w", CONTROLLER_PID, t_ns, *budget_w);
                        continue;
                    }
                    _ => continue,
                };
                t.counter("jobs_running", CONTROLLER_PID, t_ns, jobs_running as f64);
            }
        }
    }

    // By timestamp, then row; the sort is stable, so emission order breaks
    // ties. Monotone `ts` is what the round-trip test asserts.
    let mut entries = t.0;
    entries.sort_by_key(|e| (e.ts_ns, e.pid));
    let rows: BTreeSet<usize> = entries.iter().map(|e| e.pid).collect();

    let mut out = String::with_capacity(entries.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for pid in rows {
        let name = if pid == CONTROLLER_PID { "controller".into() } else { format!("node {pid}") };
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}},"
        );
    }
    for e in &entries {
        out.push_str(&e.json);
        out.push(',');
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use des::SimTime;

    fn te(ns: u64, ev: Event) -> TraceEvent {
        TraceEvent { t: SimTime::from_nanos(ns), ev }
    }

    #[test]
    fn spans_counters_and_instants_render() {
        let trace = vec![
            te(0, Event::SyncStart { sync: 1 }),
            te(0, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 2_000 }),
            te(
                500,
                Event::CapRequest {
                    node: 0,
                    requested_w: 120.0,
                    granted_w: 115.0,
                    effective_ns: 500,
                },
            ),
            te(2_000, Event::SyncEnd { sync: 1, overhead_s: 0.1 }),
        ];
        let s = chrome_trace(&trace);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"name\":\"cap_w\""));
        assert!(s.contains("\"name\":\"sync_end\""));
        assert!(s.contains("\"name\":\"process_name\""));
    }

    #[test]
    fn scheduler_events_render_as_counter_tracks() {
        let trace = vec![
            te(0, Event::MachineStart { nodes: 8, envelope_w: 880.0 }),
            te(0, Event::JobArrived { job: 0 }),
            te(10, Event::JobStarted { job: 0, nodes: 4, budget_w: 440.0 }),
            te(10, Event::MachineBudget { epoch: 0, allocated_w: 440.0, pool_w: 440.0 }),
            te(20, Event::JobStarted { job: 1, nodes: 4, budget_w: 440.0 }),
            te(30, Event::JobCompleted { job: 0, time_s: 1.5 }),
            te(40, Event::BudgetRenormalized { budget_w: 800.0 }),
        ];
        let s = chrome_trace(&trace);
        // Governor epochs become allocated/pool counter tracks…
        assert!(s.contains("\"name\":\"allocated_w\""));
        assert!(s.contains("\"args\":{\"allocated_w\":440}"));
        assert!(s.contains("\"name\":\"pool_w\""));
        // …renormalizations a budget track alongside the instant…
        assert!(s.contains("\"name\":\"budget_renormalized\""));
        assert!(s.contains("\"args\":{\"budget_w\":800}"));
        // …and job lifecycle a jobs-in-flight gauge: 1, 2, then back to 1.
        assert!(s.contains("\"args\":{\"jobs_running\":1}"));
        assert!(s.contains("\"args\":{\"jobs_running\":2}"));
        let ups = s.matches("\"args\":{\"jobs_running\":1}").count();
        assert_eq!(ups, 2, "rise to 1 and fall back to 1");
        // All of it lands on the controller row.
        assert!(s.contains("\"name\":\"controller\""));
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        assert_eq!(chrome_trace(&[]), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    /// Each event exported alone: the skipped two yield nothing, every
    /// other at least one entry, and each instant is the event's tag with
    /// exactly its JSONL fields as `args`. Every mismatch is listed.
    #[test]
    fn every_instant_is_its_event_tag_and_fields() {
        let mut bad = Vec::new();
        for te in TraceEvent::one_of_each() {
            let tag = te.ev.tag();
            let doc = json::parse(&chrome_trace(std::slice::from_ref(&te))).expect("valid JSON");
            let entries: Vec<&Value> = doc
                .get("traceEvents")
                .and_then(Value::as_arr)
                .expect("traceEvents array")
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
                .collect();
            let skipped = matches!(te.ev, Event::Arrival { .. } | Event::NodeEnergy { .. });
            if skipped != entries.is_empty() {
                bad.push(format!("{tag}: {} entries", entries.len()));
            }
            let line = json::parse(&te.to_json_line()).expect("valid JSONL");
            let fields =
                line.as_obj().expect("object").iter().filter(|(k, _)| k != "t" && k != "ev");
            let fields = Value::Obj(fields.cloned().collect());
            for e in entries.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("i")) {
                let name = e.get("name").and_then(Value::as_str);
                if name != Some(tag) || e.get("args") != Some(&fields) {
                    bad.push(format!("{tag}: instant {name:?} args {:?}", e.get("args")));
                }
            }
        }
        assert!(bad.is_empty(), "export differs from the schema:\n{}", bad.join("\n"));
    }
}
