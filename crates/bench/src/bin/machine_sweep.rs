//! Machine sweep: how much does machine-level energy feedback buy over
//! static power partitioning when N in-situ jobs share one envelope?
//!
//! Each scenario is a job mix (widths, analysis weights, arrival times,
//! an optional mid-run kill) run under the same contended machine
//! envelope once per [`Policy`]: static equal-share, SeeSAw's energy
//! feedback lifted to the machine level (`P_j ∝ E_j`), and SLURM-style
//! power-aware (`P_j ∝ P̄_j`). Everything is deterministic — same job
//! seeds, same fault plan, same admission order — so the policy is the
//! only thing that differs within a scenario, and `scripts/verify.sh`
//! diffs the JSON across thread counts.

use bench::{cli, print_table, total_steps, write_json};
use insitu::JobConfig;
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;
use obs::Reporter;
use sched::{JobSpec, MachineSpec, Policy, Scheduler};

/// One machine configuration + job mix; run once per policy.
struct Scenario {
    name: &'static str,
    nodes: usize,
    envelope_w: f64,
    jobs: Vec<JobSpec>,
    kills: faults::JobFaultPlan,
}

struct Row {
    scenario: String,
    policy: String,
    jobs: usize,
    completed: usize,
    killed: usize,
    makespan_s: f64,
    mean_completion_s: f64,
    total_energy_j: f64,
}
bench::json_struct!(Row {
    scenario,
    policy,
    jobs,
    completed,
    killed,
    makespan_s,
    mean_completion_s,
    total_energy_j,
});

/// A job of `nodes` nodes at problem size `dim` running `kind`, with its
/// own deterministic seed.
fn job(seed: u64, dim: u32, nodes: usize, steps: u64, kind: K) -> JobConfig {
    let mut spec = WorkloadSpec::paper(dim, nodes, 1, &[kind]);
    spec.total_steps = steps;
    JobConfig::new(spec, "seesaw").with_seed(seed, 0)
}

/// The scenario list. The envelope is contended in every scenario
/// (below `Σ nⱼ · δ_max`, above `Σ nⱼ · δ_min` for the concurrent set),
/// so the governor's division of power is always binding.
fn scenarios(steps: u64) -> Vec<Scenario> {
    vec![
        // Two heavy compute-bound RDF jobs (larger problem, high power
        // sensitivity) next to two light VACF jobs. Energy feedback
        // shifts watts toward the heavy jobs that pace the machine and
        // convert them into speed almost 1:1.
        Scenario {
            name: "mixed",
            nodes: 16,
            envelope_w: 1760.0,
            jobs: vec![
                JobSpec::at_start(job(11, 24, 4, steps, K::Rdf)),
                JobSpec::at_start(job(12, 24, 4, steps, K::Rdf)),
                JobSpec::at_start(job(13, 16, 4, steps, K::Vacf)),
                JobSpec::at_start(job(14, 16, 4, steps, K::Vacf)),
            ],
            kills: faults::JobFaultPlan::none(),
        },
        // A uniform mix: four identical jobs. Feedback should at worst
        // match equal-share here (the fair split is the right answer).
        Scenario {
            name: "uniform",
            nodes: 16,
            envelope_w: 1760.0,
            jobs: (0..4).map(|k| JobSpec::at_start(job(21 + k, 16, 4, steps, K::Vacf))).collect(),
            kills: faults::JobFaultPlan::none(),
        },
        // Staggered arrivals over an 8-node machine: jobs queue, backfill
        // and depart, so the governor re-divides a shifting population.
        Scenario {
            name: "staggered",
            nodes: 8,
            envelope_w: 1100.0,
            jobs: vec![
                JobSpec::at_start(job(31, 24, 4, steps, K::Rdf)),
                JobSpec::at_start(job(32, 16, 2, steps, K::Vacf)),
                JobSpec::arriving(2, job(33, 16, 2, steps, K::Rdf)),
                JobSpec::arriving(4, job(34, 16, 4, steps, K::Vacf)),
            ],
            kills: faults::JobFaultPlan::none(),
        },
        // A mid-run kill frees half the machine; the governor must fold
        // the dead job's watts back into the survivors.
        Scenario {
            name: "failure",
            nodes: 8,
            envelope_w: 1100.0,
            jobs: vec![
                JobSpec::at_start(job(41, 24, 4, steps, K::Rdf)),
                JobSpec::at_start(job(42, 24, 4, steps, K::Rdf)),
                JobSpec::arriving(1, job(43, 16, 4, steps, K::Vacf)),
            ],
            kills: faults::JobFaultPlan::from_events(vec![faults::JobFault { epoch: 3, job: 1 }]),
        },
    ]
}

fn run_scenario(sc: &Scenario, policy: Policy) -> Row {
    let mut spec = MachineSpec::new(sc.nodes, sc.envelope_w, policy);
    spec.syncs_per_epoch = 5;
    let result = Scheduler::new(spec, sc.jobs.clone())
        .expect("known controllers")
        .with_job_faults(sc.kills.clone())
        .run();
    Row {
        scenario: sc.name.to_string(),
        policy: policy.tag().to_string(),
        jobs: sc.jobs.len(),
        completed: result.outcomes.iter().filter(|o| o.outcome == "completed").count(),
        killed: result.outcomes.iter().filter(|o| o.outcome == "killed").count(),
        makespan_s: result.makespan_s,
        mean_completion_s: result.mean_completion_s(),
        total_energy_j: result.total_energy_j,
    }
}

/// The paper's full machine: Theta's 4392 nodes in one job, quiet noise
/// so the homogeneous partitions share a handful of walks per interval
/// instead of walking every node. Writes
/// `machine_sweep_theta.json`; the representative run streams through the
/// live auditor in constant memory under `--audit`.
fn run_theta(args: &cli::CommonArgs, rep: &Reporter) {
    const THETA_NODES: usize = 4392;
    let steps = if args.quick { 20 } else { total_steps() / 2 };
    let mk_job = || {
        let mut spec = WorkloadSpec::paper(48, THETA_NODES, 1, &[K::Rdf, K::Vacf]);
        spec.total_steps = steps;
        JobConfig::new(spec, "seesaw").with_seed(404, 0).with_quiet_noise()
    };
    let sc = Scenario {
        name: "theta-4392",
        nodes: THETA_NODES,
        envelope_w: 110.0 * THETA_NODES as f64,
        jobs: vec![JobSpec::at_start(mk_job())],
        kills: faults::JobFaultPlan::none(),
    };
    let policies: &[Policy] = if args.quick { &[Policy::EnergyFeedback] } else { &Policy::all() };
    let rows: Vec<Row> = policies.iter().map(|&p| run_scenario(&sc, p)).collect();

    rep.say("Machine sweep — full Theta (4392 nodes), one machine-spanning job");
    rep.blank();
    print_table(
        rep,
        &["scenario", "policy", "jobs", "done", "killed", "makespan s", "mean done s", "MJ"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.policy.clone(),
                    format!("{}", r.jobs),
                    format!("{}", r.completed),
                    format!("{}", r.killed),
                    format!("{:.1}", r.makespan_s),
                    format!("{:.1}", r.mean_completion_s),
                    format!("{:.2}", r.total_energy_j / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json(rep, "machine_sweep_theta", &rows);

    if args.wants_trace() || args.audit || args.profile {
        let mut spec = MachineSpec::new(sc.nodes, sc.envelope_w, Policy::EnergyFeedback);
        spec.syncs_per_epoch = 5;
        let session = cli::trace_session(args);
        let mut s = Scheduler::new(spec, sc.jobs.clone()).expect("known controllers");
        s.set_tracer(&session.tracer);
        let _ = s.run();
        cli::finish_session("machine_sweep_theta", args, rep, session);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let theta = argv.iter().any(|a| a == "--theta");
    let rest: Vec<String> = argv.into_iter().filter(|a| a != "--theta").collect();
    let mut args = match cli::try_parse(&rest) {
        Ok(a) => a,
        Err(msg) => cli::usage_error("machine_sweep", &msg),
    };
    args.env_fallback();
    let rep = args.reporter();
    if theta {
        run_theta(&args, &rep);
        return;
    }
    let steps = total_steps() / 2;
    let scs = scenarios(steps);

    // One task per (scenario, policy); each Scheduler::run already fans
    // its jobs across the worker pool, so the outer loop stays serial and
    // the rows depend only on the task order.
    let mut rows = Vec::new();
    for sc in &scs {
        for policy in Policy::all() {
            rows.push(run_scenario(sc, policy));
        }
    }

    rep.say("Machine sweep — N concurrent in-situ jobs under one power envelope");
    rep.blank();
    print_table(
        &rep,
        &["scenario", "policy", "jobs", "done", "killed", "makespan s", "mean done s", "MJ"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.policy.clone(),
                    format!("{}", r.jobs),
                    format!("{}", r.completed),
                    format!("{}", r.killed),
                    format!("{:.1}", r.makespan_s),
                    format!("{:.1}", r.mean_completion_s),
                    format!("{:.2}", r.total_energy_j / 1e6),
                ]
            })
            .collect::<Vec<_>>(),
    );
    rep.blank();
    for sc in &scs {
        let of = |tag: &str| {
            rows.iter()
                .find(|r| r.scenario == sc.name && r.policy == tag)
                .expect("row exists")
                .makespan_s
        };
        let base = of("equal-share");
        let fb = of("energy-feedback");
        rep.say(format!(
            "  {:<10} energy-feedback vs equal-share makespan: {:+.2}%",
            sc.name,
            100.0 * (base - fb) / base
        ));
    }
    write_json(&rep, "machine_sweep", &rows);

    // Representative traced run: the mixed scenario under energy
    // feedback, after the sweep so its JSON is unaffected by tracing.
    if args.wants_trace() || args.audit || args.profile {
        let sc = &scs[0];
        let mut spec = MachineSpec::new(sc.nodes, sc.envelope_w, Policy::EnergyFeedback);
        spec.syncs_per_epoch = 5;
        let session = cli::trace_session(&args);
        let mut s = Scheduler::new(spec, sc.jobs.clone()).expect("known controllers");
        s.set_tracer(&session.tracer);
        let _ = s.run();
        cli::finish_session("machine_sweep", &args, &rep, session);
    }
}
