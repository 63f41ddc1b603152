//! Time-shared in-situ execution (the paper's §III contrast case).
//!
//! In time-shared mode, simulation and analysis alternate on the *same*
//! nodes instead of occupying separate partitions. The paper notes this
//! "poses a simpler problem of managing a power budget: when one workload
//! enters the critical section, power can be either kept at the budget or
//! reduced to save energy" — there is no synchronization slack to harvest,
//! but each phase only gets the whole machine serially.
//!
//! This runtime exists to quantify that trade-off against the space-shared
//! mode SeeSAw targets (see `repro ablation`).

use crate::config::JobConfig;
use crate::result::{RunResult, SyncRecord};
use des::SimTime;
use mdsim::workload::{AnalyticWorkload, StepWork, WorkloadGen};
use theta_sim::{Cluster, MachineConfig, Walk, Work};

/// Execute the job's workload in time-shared mode: every node runs the
/// simulation phases, then the analysis phases, sequentially at each step.
/// All nodes stay at the equal per-node budget the whole time (no slack to
/// move). Work per node shrinks relative to space-shared mode because the
/// full machine serves each side: simulation phases scale by
/// `sim_nodes / total`, analysis phases by `analysis_nodes / total`. Phase
/// jitter follows the space-shared rule ([`theta_sim::Cluster::walk`]):
/// amplified when the per-node budget is below
/// [`theta_sim::CLIFF_START_W`].
pub fn run_time_shared(cfg: JobConfig) -> RunResult {
    let spec = cfg.workload.clone();
    let n = spec.nodes_total();
    let machine = cfg.machine.clone();
    let caps: Vec<f64> = vec![cfg.budget_per_node_w; n];
    let mut cluster = Cluster::with_caps(machine.clone(), &caps, cfg.cap_mode, cfg.seed);
    let mut workload = AnalyticWorkload::new(spec.clone());

    let sim_stretch = vec![spec.sim_nodes as f64 / n as f64; n];
    let ana_stretch = vec![spec.analysis_nodes as f64 / n as f64; n];
    let j = spec.sync_every;
    let all: Vec<usize> = (0..n).collect();
    let mut walk = Walk::default();
    let mut t = SimTime::ZERO;
    let mut syncs = Vec::new();

    for sync_k in 1..=spec.sync_count() {
        let t0 = t;
        let steps: Vec<StepWork> =
            ((sync_k - 1) * j + 1..=sync_k * j).map(|s| workload.step_work(s)).collect();

        // Simulation epoch: every node works on a (smaller) sub-domain.
        let sim_phases: Vec<Work> = steps.iter().flat_map(|sw| sw.sim_phases.clone()).collect();
        let sim_end = epoch(&mut cluster, &machine, &all, &sim_stretch, &sim_phases, t0, &mut walk);
        let sim_power_w = cluster.true_total_power(&all, t0, sim_end) / n as f64;

        // Analysis epoch (the sync step's phases), again on all nodes.
        let ana_phases = steps.last().map(|s| s.analysis_phases.clone()).unwrap_or_default();
        let ana_end =
            epoch(&mut cluster, &machine, &all, &ana_stretch, &ana_phases, sim_end, &mut walk);

        t = ana_end;
        let sim_time = sim_end.saturating_since(t0).as_secs_f64();
        let ana_time = ana_end.saturating_since(sim_end).as_secs_f64();
        syncs.push(SyncRecord {
            index: sync_k,
            start_s: t0.as_secs_f64(),
            end_s: t.as_secs_f64(),
            sim_time_s: sim_time,
            analysis_time_s: ana_time,
            sim_cap_w: cfg.budget_per_node_w,
            analysis_cap_w: cfg.budget_per_node_w,
            sim_power_w,
            analysis_power_w: if ana_time > 0.0 {
                cluster.true_total_power(&all, sim_end, ana_end) / n as f64
            } else {
                0.0
            },
            // Serial phases have no synchronization slack by construction.
            slack: 0.0,
            overhead_s: 0.0,
        });
    }

    RunResult {
        controller: "time-shared".to_string(),
        total_time_s: t.as_secs_f64(),
        total_energy_j: cluster.total_energy(&all, SimTime::ZERO, t),
        syncs,
        sim_trace: None,
        analysis_trace: None,
        // Time-shared mode does not run the fault-injection seams.
        fault_events: Vec::new(),
        recovery_events: Vec::new(),
    }
}

/// Every node of `all` runs `phases`, its work stretched by `stretch`,
/// from `start`; the early finishers wait for the last. Returns when the
/// last finished.
fn epoch(
    cluster: &mut Cluster,
    machine: &MachineConfig,
    all: &[usize],
    stretch: &[f64],
    phases: &[Work],
    start: SimTime,
    walk: &mut Walk,
) -> SimTime {
    let mut arrivals = Vec::with_capacity(all.len());
    cluster.walk(machine, all, stretch, start, phases, walk, &mut arrivals);
    let end = arrivals.iter().fold(start, |end, &arrival| end.max(arrival));
    for (&node, &arrival) in all.iter().zip(&arrivals) {
        cluster.request_caps_and_wait(machine, arrival, end, &[node], None);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_job;
    use mdsim::workload::WorkloadSpec;
    use mdsim::AnalysisKind as K;

    fn spec(kinds: &[K]) -> WorkloadSpec {
        let mut s = WorkloadSpec::paper(16, 8, 1, kinds);
        s.total_steps = 20;
        s
    }

    #[test]
    fn time_shared_runs_to_completion() {
        let r = run_time_shared(JobConfig::new(spec(&[K::Vacf]), "static"));
        assert_eq!(r.syncs.len(), 20);
        assert!(r.total_time_s > 0.0);
        assert!(r.syncs.iter().all(|s| s.slack == 0.0));
    }

    #[test]
    fn per_phase_work_is_halved_per_node() {
        // With equal partitions, each time-shared node handles half the
        // space-shared per-node simulation work; the sim epoch is roughly
        // half as long as the space-shared simulation interval.
        let ts = run_time_shared(JobConfig::new(spec(&[K::Vacf]), "static"));
        let ss = run_job(JobConfig::new(spec(&[K::Vacf]), "static")).expect("known controller");
        let ts_sim = ts.syncs[10].sim_time_s;
        let ss_sim = ss.syncs[10].sim_time_s;
        let ratio = ts_sim / ss_sim;
        assert!((0.35..0.75).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn time_shared_wins_when_slack_dominates() {
        // With VACF (huge slack in space-shared static mode), time-sharing
        // is competitive or better despite serializing the phases.
        let ts = run_time_shared(JobConfig::new(spec(&[K::Vacf]), "static"));
        let ss = run_job(JobConfig::new(spec(&[K::Vacf]), "static")).expect("known controller");
        assert!(
            ts.total_time_s < ss.total_time_s * 1.1,
            "time-shared {:.1}s vs space-shared static {:.1}s",
            ts.total_time_s,
            ss.total_time_s
        );
    }
}
