//! Seeded whole-stack scenarios: draw a job, run it traced with the
//! streaming auditor attached, and check what every run must hold.
//!
//! Each scenario draws node counts (2 to 256) and the partition split, the
//! analyses and the sync interval, the cap mode, the noise level, a budget
//! down to the 98 W floor, a fault plan and a controller from
//! `seesaw::CONTROLLER_NAMES`. `JobConfig` sets no noise amplitude beyond
//! quiet, so the noise axis is quiet or the cap mode's own sigmas, and
//! `long_short` is the amplified level (the largest sigmas). A `Runtime`
//! never enters the worker pool, so widths are not an axis.
//!
//! On every scenario:
//! - the streaming audit battery finds no error;
//! - a replay of the serialized trace writes the live run document;
//! - every decision stays within the budget in force, or pins every cap at
//!   the floor when the budget is below it;
//! - the interval and node energies each sum to the run total, which is the
//!   result's total;
//! - nothing panics, including a mutated fault plan through
//!   `Plan::from_events` and the run.
//!
//! A failure prints the seed, the scenario and a `#[test]` body to paste
//! below as its regression test.

mod common;

use common::audit_jsonl;
use des::Rng;
use insitu::{run_job_traced, FaultEvent, FaultIntensity, FaultKind, FaultPlan, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use obs::{Event, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use theta_sim::CapMode;

/// Scenarios in the tier-1 run.
const SCENARIOS: u64 = 200;

const ANALYSES: [AnalysisKind; 5] = [
    AnalysisKind::Rdf,
    AnalysisKind::Vacf,
    AnalysisKind::MsdFull,
    AnalysisKind::Msd1d,
    AnalysisKind::Msd2d,
];

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    sim_nodes: usize,
    analysis_nodes: usize,
    dim: u32,
    analyses: Vec<AnalysisKind>,
    sync_every: u64,
    syncs: u64,
    controller: &'static str,
    cap_mode: CapMode,
    quiet: bool,
    budget_per_node_w: f64,
    window: usize,
    initial_caps: Option<(f64, f64)>,
    faults: Vec<FaultEvent>,
    /// The fault list was mutated past what `FaultPlan::generate` makes:
    /// targets out of range, non-finite factors, duplicates. Such a run
    /// must not panic, but its findings are not judged.
    mutated: bool,
}

impl Scenario {
    fn draw(seed: u64) -> Scenario {
        let mut rng = Rng::seed_from_u64(seed);
        // Most scenarios are small; one in eight reaches 256 nodes.
        let span = [6, 6, 6, 14, 14, 30, 62, 254][rng.next_below(8) as usize];
        let nodes = 2 + rng.next_below(span + 1) as usize;
        let sim_nodes = 1 + rng.next_below(nodes as u64 - 1) as usize;
        // A debug-profile run costs about 60 µs per node-step, so the
        // largest jobs are the shortest.
        let syncs = if nodes > 64 { 2 + rng.next_below(2) } else { 2 + rng.next_below(9) };
        let sync_every = [1, 2, 5][rng.next_below(3) as usize].min(if nodes > 64 { 1 } else { 5 });
        let analyses: Vec<AnalysisKind> =
            ANALYSES.iter().copied().filter(|_| rng.next_below(3) == 0).collect();
        let analyses =
            if analyses.is_empty() { vec![ANALYSES[rng.next_below(5) as usize]] } else { analyses };
        let cap_mode =
            [CapMode::None, CapMode::Long, CapMode::LongShort][rng.next_below(3) as usize];
        let budget_per_node_w = match rng.next_below(4) {
            0 => 98.0,
            1 => rng.uniform(98.0, 110.0),
            2 => rng.uniform(110.0, 140.0),
            _ => rng.uniform(140.0, 215.0),
        };
        let initial_caps =
            (rng.next_below(4) == 0).then(|| (rng.uniform(98.0, 215.0), rng.uniform(98.0, 215.0)));
        let mut faults = match rng.next_below(3) {
            0 => Vec::new(),
            1 => {
                let x = [0.2, 0.6, 1.0][rng.next_below(3) as usize];
                let plan =
                    FaultPlan::generate(rng.next_u64(), &FaultIntensity::scaled(x), nodes, syncs);
                (0..syncs).flat_map(|s| plan.at(s).to_vec()).collect()
            }
            _ => (0..1 + rng.next_below(6)).map(|_| fault(&mut rng, nodes, syncs)).collect(),
        };
        let mutated = !faults.is_empty() && rng.next_below(4) == 0;
        if mutated {
            mutate(&mut rng, &mut faults);
        }
        Scenario {
            seed,
            sim_nodes,
            analysis_nodes: nodes - sim_nodes,
            dim: [4, 8, 16, 32][rng.next_below(4) as usize],
            analyses,
            sync_every,
            syncs,
            controller: seesaw::CONTROLLER_NAMES[rng.next_below(5) as usize],
            cap_mode,
            quiet: rng.next_below(3) == 0,
            budget_per_node_w,
            window: 1 + rng.next_below(4) as usize,
            initial_caps,
            faults,
            mutated,
        }
    }

    fn config(&self) -> JobConfig {
        let mut spec = WorkloadSpec::paper(16, 2, self.sync_every, &self.analyses);
        (spec.dim, spec.sim_nodes, spec.analysis_nodes) =
            (self.dim, self.sim_nodes, self.analysis_nodes);
        spec.total_steps = self.syncs * self.sync_every;
        let mut cfg = JobConfig::new(spec, self.controller)
            .with_seed(self.seed, 0)
            .with_budget(self.budget_per_node_w)
            .with_window(self.window)
            .with_faults(FaultPlan::from_events(self.faults.clone()));
        cfg.cap_mode = self.cap_mode;
        cfg.quiet_noise = self.quiet;
        if let Some((sim_w, analysis_w)) = self.initial_caps {
            cfg = cfg.with_initial_caps(sim_w, analysis_w);
        }
        cfg
    }
}

/// One fault of any kind on a live target.
fn fault(rng: &mut Rng, nodes: usize, syncs: u64) -> FaultEvent {
    let kind = match rng.next_below(11) {
        0 => FaultKind::NodeCrash,
        1 => FaultKind::Straggler { factor: rng.uniform(1.1, 4.0) },
        2 => FaultKind::RaplStuck,
        3 => FaultKind::RaplDelayed { extra_s: rng.uniform(0.01, 0.5) },
        4 => FaultKind::RaplWriteError,
        5 => FaultKind::SampleNan,
        6 => FaultKind::SampleSpike { factor: rng.uniform(1.0, 100.0) },
        7 => FaultKind::SampleDropout,
        8 => FaultKind::MonitorDeath,
        9 => FaultKind::MessageLoss,
        _ => FaultKind::CollectiveTimeout { failures: 1 + rng.next_below(4) as u32 },
    };
    FaultEvent { sync: rng.next_below(syncs), node: rng.next_below(nodes as u64) as usize, kind }
}

/// Break the fault list the ways a hand-built plan could.
fn mutate(rng: &mut Rng, faults: &mut Vec<FaultEvent>) {
    for _ in 0..1 + rng.next_below(3) {
        let i = rng.next_below(faults.len() as u64) as usize;
        let f = &mut faults[i];
        match rng.next_below(5) {
            0 => f.node = [1 << 20, usize::MAX][rng.next_below(2) as usize],
            1 => f.sync = [u64::MAX, 1 << 40][rng.next_below(2) as usize],
            2 => {
                let x = [f64::NAN, f64::INFINITY, -1.0, 0.0][rng.next_below(4) as usize];
                f.kind = match rng.next_below(3) {
                    0 => FaultKind::Straggler { factor: x },
                    1 => FaultKind::SampleSpike { factor: x },
                    _ => FaultKind::RaplDelayed { extra_s: x },
                };
            }
            3 => f.kind = FaultKind::CollectiveTimeout { failures: u32::MAX },
            _ => faults.push(faults[i]),
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Run the scenario and check it; `Err` says what broke.
fn check(s: &Scenario) -> Result<(), String> {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let tracer = Tracer::enabled();
        let live = Arc::new(Mutex::new(audit::StreamAuditor::new()));
        tracer.attach(Box::new(Arc::clone(&live)));
        let run = run_job_traced(s.config(), &tracer).expect("a known controller");
        let (events, jsonl) = (tracer.events(), tracer.to_jsonl());
        drop(tracer);
        let live = std::mem::take(&mut *live.lock().expect("auditor poisoned")).finish();
        (run, events, jsonl, live)
    }));
    let (run, events, jsonl, live) = ran.map_err(|p| {
        let msg = p.downcast_ref::<String>().cloned();
        let msg = msg.or_else(|| p.downcast_ref::<&str>().map(|m| m.to_string()));
        format!("panicked: {}", msg.unwrap_or_default())
    })?;
    let replay = audit_jsonl(&jsonl).map_err(|(n, e)| format!("line {n} does not re-read: {e}"))?;
    if replay.to_json() != live.to_json() {
        return Err("the replayed run document differs from the live one".into());
    }
    if s.mutated {
        return Ok(());
    }
    if !live.report.clean() {
        let found: Vec<String> = live.report.violations.iter().map(|v| v.to_string()).collect();
        return Err(format!("the battery found:\n  {}", found.join("\n  ")));
    }
    let (mut budget, mut floor) = (f64::NAN, f64::NAN);
    let (mut sync_j, mut node_j, mut total_j) = (0.0, 0.0, None);
    for e in &events {
        match &e.ev {
            Event::RunStart { budget_w, min_cap_w, .. } => {
                (budget, floor) = (*budget_w, *min_cap_w)
            }
            Event::BudgetRenormalized { budget_w } => budget = *budget_w,
            Event::Decision(d) => {
                let n = (d.sim_nodes + d.analysis_nodes) as f64;
                let total =
                    d.sim_node_w * d.sim_nodes as f64 + d.analysis_node_w * d.analysis_nodes as f64;
                let tol = 1e-6 * n.max(1.0);
                let pinned = d.sim_node_w <= floor + tol && d.analysis_node_w <= floor + tol;
                if !(total <= budget + tol || pinned) {
                    return Err(format!(
                        "decision {}: {total} W allocated over the {budget} W budget",
                        d.sync
                    ));
                }
            }
            Event::SyncEnergy { energy_j, .. } => sync_j += energy_j,
            Event::NodeEnergy { energy_j, .. } => node_j += energy_j,
            Event::RunEnd { total_energy_j, .. } => total_j = Some(*total_energy_j),
            _ => {}
        }
    }
    let total = total_j.ok_or("no run_end")?;
    for (sum, what) in [(sync_j, "interval"), (node_j, "node"), (run.total_energy_j, "result")] {
        if !close(sum, total) {
            return Err(format!("{what} energy {sum} J is not the run total {total} J"));
        }
    }
    Ok(())
}

/// The failure report: seed, scenario, and a regression test to paste.
fn report(s: &Scenario, err: &str) -> String {
    format!(
        "scenario seed {seed:#x}: {err}\n{s:?}\n\n#[test]\nfn scenario_{seed:x}() {{\n    \
         check(&Scenario::draw({seed:#x})).unwrap();\n}}\n",
        seed = s.seed
    )
}

#[test]
fn generated_scenarios_hold_every_invariant() {
    let mut rng = Rng::seed_from_u64(0x5CE7_A810);
    let failures: Vec<String> = (0..SCENARIOS)
        .map(|_| Scenario::draw(rng.next_u64()))
        .filter_map(|s| check(&s).err().map(|e| report(&s, &e)))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {SCENARIOS} scenarios failed:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

// Regression tests: scenarios that found a defect, by what it was.

/// A sample spike on node 1 and its crash in the same interval: the spike
/// was logged as applied, but the crash fires first, so nothing rejected it.
#[test]
fn a_fault_beside_a_crash_in_one_interval_does_not_apply() {
    check(&Scenario::draw(0xe59d58d4e92c164e)).unwrap();
}

/// A straggle factor of NaN stretched phase work to NaN and panicked.
#[test]
fn a_non_finite_straggle_factor_does_not_apply() {
    check(&Scenario::draw(0xc4087a5c2b14e2ce)).unwrap();
}

/// A collective timeout aimed at node `usize::MAX`, outside the job, was
/// traced as applied to that node (and the strict reader, which then read
/// integers only to `i64::MAX`, refused the line).
#[test]
fn a_fault_outside_the_job_does_not_apply() {
    check(&Scenario::draw(0x2ff7dcc3dffc1e3d)).unwrap();
}

/// Every sample of interval 1 dropped: no exchange ran, the observation
/// index stayed behind, and every later exchange carried the previous
/// interval's index.
#[test]
fn an_interval_without_feedback_still_advances_the_observation_index() {
    check(&Scenario::draw(0xe935a34d09b0454a)).unwrap();
}

/// The only simulation node crashes beside sample faults on analysis
/// nodes: the job halts before any sample, so those faults never applied.
#[test]
fn faults_of_a_halting_interval_do_not_apply() {
    check(&Scenario::draw(0xf7448b9c867a8b60)).unwrap();
}
