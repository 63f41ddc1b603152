//! The battery's exact output on one doctored trace: every finding (code,
//! check, detail, in order) and every health row, pinned as literals.
//!
//! The other audit tests ask whether *some* finding of a check fired.
//! This one pins the whole report: battery order (clock, sync, spans,
//! budget, caps, energy, envelope, faults, fleet, lifecycle, halt), event
//! order within a check, which findings each health row's `violations`
//! column counts, and when a fleet renormalization group closes — by a
//! non-renorm event, by an epoch change, or at end of stream.

use audit::StreamAuditor;
use des::SimTime;
use obs::{DecisionInfo, Event, TraceEvent};

fn ev(t_ns: u64, ev: Event) -> TraceEvent {
    TraceEvent { t: SimTime::from_nanos(t_ns), ev }
}

fn decision(t_ns: u64, sync: u64, sim_w: f64, ana_w: f64) -> TraceEvent {
    ev(
        t_ns,
        Event::Decision(Box::new(DecisionInfo {
            sync,
            sim_nodes: 12,
            analysis_nodes: 4,
            alpha_sim: 1.0,
            alpha_analysis: 1.0,
            p_opt_sim_w: sim_w * 12.0,
            p_opt_analysis_w: ana_w * 4.0,
            blend_sim_w: sim_w * 12.0,
            blend_analysis_w: ana_w * 4.0,
            sim_node_w: sim_w,
            analysis_node_w: ana_w,
            clamped: false,
        })),
    )
}

/// One in-situ run, then a machine scheduler, then a fleet, with at least
/// one break of every check `AUDIT0001`–`AUDIT0012`, and no `run_end`.
fn doctored() -> Vec<TraceEvent> {
    use Event as E;
    vec![
        ev(
            0,
            E::RunStart {
                sim_nodes: 12,
                analysis_nodes: 4,
                budget_w: 1760.0,
                min_cap_w: 98.0,
                max_cap_w: 215.0,
                actuation_ns: 10_000_000,
            },
        ),
        // A span outside any interval.
        ev(0, E::Phase { node: 1, kind: "force".into(), start_ns: 0, end_ns: 2 }),
        ev(0, E::SyncStart { sync: 1 }),
        ev(0, E::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 5 }),
        // Overlaps the span before it, and overruns the interval.
        ev(0, E::Phase { node: 0, kind: "neigh".into(), start_ns: 3, end_ns: 20 }),
        ev(4, E::Wait { node: 1, start_ns: 4, end_ns: 6 }),
        ev(5, E::CapRequest { node: 2, requested_w: 120.0, granted_w: 130.0, effective_ns: 5 }),
        ev(6, E::CapRequest { node: 1, requested_w: 300.0, granted_w: 300.0, effective_ns: 1_000 }),
        ev(8, E::Sample { node: 0, role: "sim".into(), time_s: 1.0, power_w: 110.0, cap_w: 115.0 }),
        decision(9, 0, 215.0, 215.0),
        ev(9, E::AllocationHeld { sync: 3 }),
        ev(10, E::SyncEnd { sync: 1, overhead_s: 0.5 }),
        ev(10, E::SyncEnergy { sync: 1, energy_j: -1.0 }),
        ev(10, E::BudgetRenormalized { budget_w: 1000.0 }),
        // The clock runs backwards, and interval 2 is skipped.
        ev(7, E::SyncStart { sync: 3 }),
        ev(12, E::Fault { sync: 3, node: 5, tag: "node_crash".into() }),
        ev(12, E::Fault { sync: 3, node: 6, tag: "sample_nan".into() }),
        ev(12, E::Recovery { sync: 3, node: 6, tag: "sample_rejected".into() }),
        ev(12, E::Fault { sync: 9, node: 1, tag: "monitor_death".into() }),
        decision(12, 2, 100.0, 100.0),
        ev(
            13,
            E::Decision(Box::new(DecisionInfo {
                sync: 7,
                sim_nodes: 4,
                analysis_nodes: 4,
                alpha_sim: 1.0,
                alpha_analysis: 1.0,
                p_opt_sim_w: 392.0,
                p_opt_analysis_w: 392.0,
                blend_sim_w: 392.0,
                blend_analysis_w: 392.0,
                sim_node_w: 98.0,
                analysis_node_w: 98.0,
                clamped: true,
            })),
        ),
        ev(14, E::SyncEnd { sync: 3, overhead_s: 0.25 }),
        ev(15, E::SyncEnd { sync: 4, overhead_s: 0.0 }),
        // The machine scheduler.
        ev(20, E::MachineStart { nodes: 16, envelope_w: 1760.0 }),
        ev(20, E::MachineBudget { epoch: 0, allocated_w: 1000.0, pool_w: 500.0 }),
        ev(21, E::JobArrived { job: 10 }),
        ev(21, E::JobStarted { job: 10, nodes: 8, budget_w: 880.0 }),
        ev(22, E::JobStarted { job: 10, nodes: 8, budget_w: 880.0 }),
        ev(22, E::JobStarted { job: 11, nodes: 4, budget_w: 440.0 }),
        ev(23, E::JobCompleted { job: 10, time_s: 2.0 }),
        ev(24, E::JobKilled { job: 10 }),
        ev(24, E::JobKilled { job: 12 }),
        ev(25, E::MachineBudget { epoch: 1, allocated_w: 1200.0, pool_w: 560.0 }),
        // The fleet.
        ev(
            30,
            E::FleetStart {
                machines: 2,
                envelope_w: 1000.0,
                retry_base_epochs: 1,
                retry_cap_epochs: 8,
                max_retries: 3,
            },
        ),
        ev(30, E::EnvelopeRenorm { epoch: 0, machine: 0, share_w: 450.0, cap_w: 600.0 }),
        ev(31, E::EnvelopeRenorm { epoch: 0, machine: 1, share_w: 450.0, cap_w: 600.0 }),
        // A non-renorm event closes the epoch-0 group.
        ev(32, E::JobArrived { job: 0 }),
        ev(32, E::JobDispatched { job: 0, machine: 1 }),
        ev(33, E::MachineDown { machine: 1, epoch: 3 }),
        ev(33, E::MachineDown { machine: 1, epoch: 4 }),
        ev(34, E::EnvelopeRenorm { epoch: 3, machine: 1, share_w: 700.0, cap_w: 600.0 }),
        // An epoch change closes the epoch-3 group.
        ev(35, E::EnvelopeRenorm { epoch: 4, machine: 0, share_w: 600.0, cap_w: 600.0 }),
        ev(36, E::JobRetry { job: 0, attempt: 2, backoff_epochs: 99 }),
        ev(37, E::JobDispatched { job: 0, machine: 1 }),
        ev(37, E::JobMigrated { job: 0, from_machine: 0, to_machine: 0 }),
        ev(38, E::JobCompleted { job: 0, time_s: 3.0 }),
        ev(38, E::JobArrived { job: 7 }),
        ev(38, E::JobDispatched { job: 7, machine: 0 }),
        ev(39, E::JobFailed { job: 8, attempts: 1 }),
        ev(39, E::MachineUp { machine: 0, epoch: 5 }),
        ev(39, E::Fault { sync: 4, node: 2, tag: "gremlin".into() }),
        // Interval 4 opens and the run never reaches run_end.
        ev(40, E::SyncStart { sync: 4 }),
        // A group still open at end of stream.
        ev(41, E::EnvelopeRenorm { epoch: 6, machine: 0, share_w: 400.0, cap_w: 600.0 }),
    ]
}

/// Badly nested intervals, then `run_end` and what follows it: the event
/// after the epilogue, and the energy identities against the last total.
fn nesting_and_run_end() -> Vec<TraceEvent> {
    use Event as E;
    vec![
        ev(0, E::SyncStart { sync: 1 }),
        ev(1, E::Phase { node: 0, kind: "force".into(), start_ns: 1, end_ns: 2 }),
        ev(2, E::SyncStart { sync: 2 }),
        ev(3, E::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 4 }),
        ev(5, E::SyncEnd { sync: 1, overhead_s: 0.0 }),
        ev(5, E::SyncEnergy { sync: 1, energy_j: 10.0 }),
        ev(5, E::NodeEnergy { node: 0, energy_j: 12.0 }),
        ev(5, E::RunEnd { total_time_s: 1.0, total_energy_j: 25.0 }),
        ev(6, E::SyncStart { sync: 2 }),
        ev(7, E::SyncEnd { sync: 2, overhead_s: 0.0 }),
        ev(7, E::RunEnd { total_time_s: 2.0, total_energy_j: 30.0 }),
        ev(8, E::RunEnd { total_time_s: 2.0, total_energy_j: 10.0 }),
    ]
}

/// (code, check, detail).
type Finding = (&'static str, &'static str, String);
/// (t_ns, marker, index, jobs_running, machines_up, allocated_w, budget_w, violations).
type Row = (u64, &'static str, u64, u64, u64, f64, f64, u64);

/// The findings, the health rows, and the report's event and interval
/// counts and run totals.
fn audit(events: &[TraceEvent]) -> (Vec<Finding>, Vec<Row>, [f64; 4]) {
    let mut auditor = StreamAuditor::new();
    events.iter().for_each(|e| auditor.feed(e));
    let out = auditor.finish();
    let found = out.report.violations.iter().map(|v| (v.code_str(), v.check(), v.detail.clone()));
    let health = out.health.iter().map(|h| {
        (
            h.t_ns,
            h.marker,
            h.index,
            h.jobs_running,
            h.machines_up,
            h.allocated_w,
            h.budget_w,
            h.violations,
        )
    });
    let r = &out.report;
    let totals = [r.events as f64, r.syncs as f64, r.total_time_s, r.total_energy_j];
    (found.collect(), health.collect(), totals)
}

fn owned(found: &[(&'static str, &'static str, &str)]) -> Vec<Finding> {
    found.iter().map(|&(code, check, detail)| (code, check, detail.to_string())).collect()
}

#[test]
fn battery_output_on_doctored_traces_is_pinned() {
    let (found, health, totals) = audit(&doctored());
    assert_eq!(
        found,
        owned(&[
            ("AUDIT0001", "clock", "event 14 (sync_start) at t=7ns precedes earlier stamp 10ns"),
            ("AUDIT0002", "sync", "allocation_held carries observation index 3 inside interval 1 (expected 0)"),
            ("AUDIT0002", "sync", "sync 3 opened, expected 2"),
            ("AUDIT0002", "sync", "decision carries observation index 7 inside interval 3 (expected 2)"),
            ("AUDIT0002", "sync", "sync_end 4 with no open sync"),
            ("AUDIT0003", "spans", "phase span [3, 20]ns on node 0 overlaps earlier activity ending at 5ns"),
            ("AUDIT0003", "spans", "phase span [3, 20]ns on node 0 overruns interval 1 end 10ns"),
            ("AUDIT0004", "budget", "decision at observation 0: allocation 3440.000000 W exceeds budget 1760.000000 W (12 sim nodes x 215.000000 W + 4 analysis nodes x 215.000000 W)"),
            ("AUDIT0004", "budget", "decision at observation 2: allocation 1600.000000 W exceeds budget 1000.000000 W (12 sim nodes x 100.000000 W + 4 analysis nodes x 100.000000 W)"),
            ("AUDIT0005", "cap_range", "node 2: granted cap 130 W is neither clamp(120) = 120 W nor the TDP 215 W"),
            ("AUDIT0005", "cap_range", "node 1: granted cap 300 W outside [98, 215] W"),
            ("AUDIT0005", "cap_range", "node 1: granted cap 300 W is neither clamp(300) = 215 W nor the TDP 215 W"),
            ("AUDIT0006", "actuation", "node 1: cap requested at 6ns enforced at 1000ns, sooner than the 10000000ns actuation latency"),
            ("AUDIT0007", "energy", "interval 1 energy is not physical: -1"),
            ("AUDIT0008", "envelope", "epoch 0: allocated 1000 W + pool 500 W does not sum to the envelope 1760 W"),
            ("AUDIT0009", "faults", "fault \"node_crash\" on node 5 in sync 3 has no matching graceful-degradation action"),
            ("AUDIT0009", "faults", "fault \"monitor_death\" on node 1 in sync 9 has no matching graceful-degradation action"),
            ("AUDIT0009", "faults", "unknown fault tag \"gremlin\" in sync 4"),
            ("AUDIT0010", "fleet", "renorm at epoch 0: shares sum to 900 W, expected min(envelope 1000 W, member caps 1200 W) = 1000 W"),
            ("AUDIT0010", "fleet", "machine 1 declared down at epoch 4 while down"),
            ("AUDIT0010", "fleet", "renorm at epoch 3: machine 1 share 700 W exceeds its cap 600 W"),
            ("AUDIT0010", "fleet", "renorm at epoch 3: down machine 1 got a share"),
            ("AUDIT0010", "fleet", "renorm at epoch 3: shares sum to 700 W, expected min(envelope 1000 W, member caps 600 W) = 600 W"),
            ("AUDIT0010", "fleet", "job 0: retry attempt 2 out of sequence (expected 1)"),
            ("AUDIT0010", "fleet", "job 0: backoff 99 epochs exceeds the ceiling 8"),
            ("AUDIT0010", "fleet", "job 0: dispatch 2 not pair-matched with retries (2)"),
            ("AUDIT0010", "fleet", "job 0 dispatched to down machine 1"),
            ("AUDIT0010", "fleet", "job 0 migrated from machine 0 but last ran on machine Some(1)"),
            ("AUDIT0010", "fleet", "job 0 migrated to the same machine"),
            ("AUDIT0010", "fleet", "job 8 failed after 1 attempts but 0 dispatches were traced"),
            ("AUDIT0010", "fleet", "machine 0 declared up at epoch 5 while up"),
            ("AUDIT0010", "fleet", "renorm at epoch 6: shares sum to 400 W, expected min(envelope 1000 W, member caps 600 W) = 600 W"),
            ("AUDIT0010", "fleet", "job 7 lost: arrived but neither completed nor reported failed"),
            ("AUDIT0011", "lifecycle", "job 10 started while already running"),
            ("AUDIT0011", "lifecycle", "job 11 started without arriving"),
            ("AUDIT0011", "lifecycle", "job 10 killed after terminal state"),
            ("AUDIT0011", "lifecycle", "job 12 killed without arriving"),
            ("AUDIT0011", "lifecycle", "job 0 completed without running"),
            ("AUDIT0012", "halt", "run halted: interval 4 is the last opened and run_end was never recorded (legal under partition death, otherwise a lost epilogue)"),
        ])
    );
    let rows: [Row; 9] = [
        (10, "sync", 1, 0, 0, 3440.0, 1760.0, 8),
        (14, "sync", 3, 0, 0, 784.0, 1000.0, 14),
        (15, "sync", 4, 0, 0, 784.0, 1000.0, 15),
        (20, "epoch", 0, 0, 1, 1000.0, 1760.0, 16),
        (25, "epoch", 1, 0, 1, 1200.0, 1760.0, 20),
        (31, "renorm", 0, 0, 2, 900.0, 1000.0, 21),
        (34, "renorm", 3, 1, 0, 700.0, 1000.0, 25),
        (35, "renorm", 4, 1, 0, 600.0, 1000.0, 27),
        (41, "renorm", 6, 0, 1, 400.0, 1000.0, 34),
    ];
    assert_eq!(health, rows);
    assert_eq!(totals, [53.0, 3.0, 0.0, 0.0]);

    let (found, health, totals) = audit(&nesting_and_run_end());
    assert_eq!(
        found,
        owned(&[
            ("AUDIT0002", "sync", "sync 2 opened while sync 1 still open"),
            ("AUDIT0002", "sync", "sync_end 1 closes open sync 2"),
            ("AUDIT0002", "sync", "event (sync_start) after run_end"),
            ("AUDIT0002", "sync", "sync 2 opened, expected 3"),
            ("AUDIT0002", "sync", "event (run_end) after run_end"),
            ("AUDIT0003", "spans", "phase span [0, 4]ns on node 0 overlaps earlier activity ending at 2ns"),
            ("AUDIT0003", "spans", "phase span [0, 4]ns on node 0 starts before interval 2 start 2ns"),
            ("AUDIT0007", "energy", "node energies sum to 12 J but the run total is 10 J (tolerance 0.000009999999999999999 J)"),
        ])
    );
    let rows: [Row; 2] = [(5, "sync", 1, 0, 0, 0.0, 0.0, 4), (7, "sync", 2, 0, 0, 0.0, 0.0, 6)];
    assert_eq!(health, rows);
    assert_eq!(totals, [12.0, 3.0, 2.0, 10.0]);
}
