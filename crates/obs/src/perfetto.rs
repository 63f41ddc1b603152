//! Chrome-trace (Perfetto) export.
//!
//! Renders a recorded trace as the JSON object format understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>: each node becomes a
//! process row with phase/wait activity spans and `cap_w` / `power_w`
//! counter tracks, and controller-level happenings (sync boundaries,
//! decisions, holds) land on a synthetic "controller" process. Machine
//! and fleet traces contribute controller-row counter tracks too:
//! `allocated_w` / `pool_w` from each governor epoch, `budget_w` from
//! renormalizations, and a derived `jobs_running` gauge (+1 on job
//! start/dispatch, −1 on completion, kill, retry, or failure).
//! Timestamps are microseconds of **simulated** time, so the export is as
//! deterministic as the trace itself.

use crate::event::{Event, TraceEvent};
use std::collections::BTreeSet;

/// Synthetic pid for controller/runtime-level instant events, far above
/// any plausible node id so node rows sort first.
const CONTROLLER_PID: usize = 1_000_000;

/// One pre-rendered trace entry plus its sort key.
struct Entry {
    ts_ns: u64,
    pid: usize,
    seq: usize,
    json: String,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn span(name: &str, pid: usize, start_ns: u64, end_ns: u64) -> String {
    let dur = end_ns.saturating_sub(start_ns);
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{}}}",
        us(start_ns),
        us(dur)
    )
}

fn counter(name: &str, pid: usize, ts_ns: u64, value: f64) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{\"{name}\":{v}}}}}",
        us(ts_ns)
    )
}

fn instant(name: &str, pid: usize, ts_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{{args}}}}}",
        us(ts_ns)
    )
}

fn process_name(pid: usize, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
    )
}

fn f(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render `events` as a Chrome-trace JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<Entry> = Vec::with_capacity(events.len());
    let mut pids: BTreeSet<usize> = BTreeSet::new();
    let mut controller_used = false;
    // Derived jobs-in-flight counter for machine/fleet traces: +1 on
    // start/dispatch, −1 when a job leaves the machine for any reason.
    let mut jobs_running: u64 = 0;
    let push = |entries: &mut Vec<Entry>, ts_ns: u64, pid: usize, json: String| {
        let seq = entries.len();
        entries.push(Entry { ts_ns, pid, seq, json });
    };

    for te in events {
        let t_ns = te.t.as_nanos();
        match &te.ev {
            Event::Phase { node, kind, start_ns, end_ns } => {
                pids.insert(*node);
                push(&mut entries, *start_ns, *node, span(kind, *node, *start_ns, *end_ns));
            }
            Event::Wait { node, start_ns, end_ns } => {
                pids.insert(*node);
                push(&mut entries, *start_ns, *node, span("wait", *node, *start_ns, *end_ns));
            }
            Event::CapRequest { node, granted_w, effective_ns, .. } => {
                pids.insert(*node);
                push(
                    &mut entries,
                    *effective_ns,
                    *node,
                    counter("cap_w", *node, *effective_ns, *granted_w),
                );
            }
            Event::Sample { node, power_w, .. } => {
                pids.insert(*node);
                push(&mut entries, t_ns, *node, counter("power_w", *node, t_ns, *power_w));
            }
            Event::SyncStart { sync } => {
                controller_used = true;
                let args = format!("\"sync\":{sync}");
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("sync_start", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::SyncEnd { sync, overhead_s } => {
                controller_used = true;
                let args = format!("\"sync\":{sync},\"overhead_s\":{}", f(*overhead_s));
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("sync_end", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::Rendezvous { sync, slack, .. } => {
                controller_used = true;
                let args = format!("\"sync\":{sync},\"slack\":{}", f(*slack));
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("rendezvous", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::Decision(d) => {
                controller_used = true;
                let args = format!(
                    "\"sync\":{},\"sim_node_w\":{},\"analysis_node_w\":{},\"clamped\":{}",
                    d.sync,
                    f(d.sim_node_w),
                    f(d.analysis_node_w),
                    d.clamped
                );
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("decision", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::ControllerHold { sync, reason } => {
                controller_used = true;
                let args = format!("\"sync\":{sync},\"reason\":\"{reason}\"");
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("hold", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::ExchangeDone { sync, overhead_s, decided } => {
                controller_used = true;
                let args = format!(
                    "\"sync\":{sync},\"overhead_s\":{},\"decided\":{decided}",
                    f(*overhead_s)
                );
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("exchange", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::AllocationHeld { sync } => {
                controller_used = true;
                let args = format!("\"sync\":{sync}");
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("allocation_held", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::BudgetRenormalized { budget_w } => {
                controller_used = true;
                let args = format!("\"budget_w\":{}", f(*budget_w));
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("budget_renormalized", CONTROLLER_PID, t_ns, &args),
                );
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    counter("budget_w", CONTROLLER_PID, t_ns, *budget_w),
                );
            }
            Event::MonitorReelected { node, new_rank } => {
                controller_used = true;
                let args = format!("\"node\":{node},\"new_rank\":{new_rank}");
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    instant("monitor_reelected", CONTROLLER_PID, t_ns, &args),
                );
            }
            Event::NodeExcluded { node } => {
                pids.insert(*node);
                push(&mut entries, t_ns, *node, instant("node_excluded", *node, t_ns, ""));
            }
            Event::SampleRejected { node } => {
                pids.insert(*node);
                push(&mut entries, t_ns, *node, instant("sample_rejected", *node, t_ns, ""));
            }
            Event::Fault { node, tag, .. } => {
                pids.insert(*node);
                let args = format!("\"tag\":\"{tag}\"");
                push(&mut entries, t_ns, *node, instant("fault", *node, t_ns, &args));
            }
            Event::Recovery { node, tag, .. } => {
                pids.insert(*node);
                let args = format!("\"tag\":\"{tag}\"");
                push(&mut entries, t_ns, *node, instant("recovery", *node, t_ns, &args));
            }
            Event::SyncEnergy { sync: _, energy_j } => {
                controller_used = true;
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    counter("sync_energy_j", CONTROLLER_PID, t_ns, *energy_j),
                );
            }
            Event::Arrival { .. } | Event::RunStart { .. } | Event::RunEnd { .. } => {
                // Arrivals are covered by the per-node wait spans and
                // rendezvous instants; the run header/footer are audit
                // context, not timeline content.
            }
            Event::NodeEnergy { .. } => {
                // A whole-run scalar per node; no sensible timeline shape.
            }
            Event::MachineBudget { allocated_w, pool_w, .. } => {
                controller_used = true;
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    counter("allocated_w", CONTROLLER_PID, t_ns, *allocated_w),
                );
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    counter("pool_w", CONTROLLER_PID, t_ns, *pool_w),
                );
            }
            Event::JobStarted { .. } | Event::JobDispatched { .. } => {
                controller_used = true;
                jobs_running += 1;
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    counter("jobs_running", CONTROLLER_PID, t_ns, jobs_running as f64),
                );
            }
            Event::JobCompleted { .. }
            | Event::JobKilled { .. }
            | Event::JobRetry { .. }
            | Event::JobFailed { .. } => {
                controller_used = true;
                jobs_running = jobs_running.saturating_sub(1);
                push(
                    &mut entries,
                    t_ns,
                    CONTROLLER_PID,
                    counter("jobs_running", CONTROLLER_PID, t_ns, jobs_running as f64),
                );
            }
            Event::MachineStart { .. }
            | Event::JobArrived { .. }
            | Event::FleetStart { .. }
            | Event::MachineDown { .. }
            | Event::MachineUp { .. }
            | Event::JobMigrated { .. }
            | Event::EnvelopeRenorm { .. } => {
                // The remaining scheduling events have no per-node row and
                // no counter shape; the JSONL trace carries them, the
                // Perfetto view omits them.
            }
        }
    }

    // Stable order: by timestamp, then row, then original emission order —
    // the monotone-ts invariant the round-trip test asserts.
    entries.sort_by_key(|e| (e.ts_ns, e.pid, e.seq));

    let mut out = String::with_capacity(entries.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, json: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(json);
    };
    for pid in &pids {
        emit(&mut out, &process_name(*pid, &format!("node {pid}")));
    }
    if controller_used {
        emit(&mut out, &process_name(CONTROLLER_PID, "controller"));
    }
    for e in &entries {
        emit(&mut out, &e.json);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
