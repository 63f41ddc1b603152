//! Probes: single public calls timed in isolation, at the end of every
//! traced run. A probe gives the unit cost of a layer the outside-in
//! spans cannot reach; each is the median over batches of the batch-mean
//! time per call. Where cache residency matters the working set is the
//! large variant (4 392 nodes, 12 544 atoms: ≥ 4 MB against a 2 MB L2).

use crate::workloads::Size;
use audit::diff::{diff_readers, DEFAULT_CONTEXT};
use des::SimTime;
use insitu::{median, run_job, run_job_traced, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::{
    compute_forces_into, water_ion_box, AnalysisKind as K, AnalysisSchedule, CoeffTable,
    ForceParams, ForceScratch, MdEngine, NeighborList, PairTable, SplitAnalysis,
};
use mpisim::{coll, Communicator, JobLayout, NetworkModel};
use obs::Tracer;
use polimer::{NodeInterval, PowerManager, PowerManagerConfig};
use seesaw::{Controller, NodeSample, Role, SeeSaw, SeeSawConfig, SyncObservation};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use theta_sim::{CapMode, Cluster, MachineConfig, PhaseKind, Work};

/// How long and how large the probes run.
struct Scale {
    batches: usize,
    batch_ns: u64,
    /// The two node counts of the `_128` / `_4392` metric pairs.
    nodes: [usize; 2],
    /// The real-engine box edges of the `_1568` / `_12544` metric pairs.
    md_dims: [usize; 2],
    /// Nodes and steps of the job the `obs`/`audit` probes trace.
    job: (usize, u64),
}

impl Scale {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Scale {
                batches: 7,
                batch_ns: 8_000_000,
                nodes: [128, 4392],
                md_dims: [1, 2],
                job: (32, 120),
            },
            // Same code paths at sizes a debug build finishes in well
            // under a second; the metric names keep their full-size labels.
            Size::Smoke => Scale {
                batches: 1,
                batch_ns: 100_000,
                nodes: [8, 16],
                md_dims: [1, 1],
                job: (4, 6),
            },
        }
    }

    /// Median over batches of the mean nanoseconds one call of `f` takes.
    fn ns_per_call(&self, mut f: impl FnMut()) -> f64 {
        f();
        let t0 = Instant::now();
        f();
        let once = (t0.elapsed().as_nanos() as u64).max(1);
        let iters = (self.batch_ns / once).clamp(1, 1_000_000);
        let means: Vec<f64> = (0..self.batches)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        median(&means)
    }
}

/// Run every probe and add its metrics to `m`.
pub fn run(m: &mut BTreeMap<&'static str, f64>, size: Size) {
    let scale = Scale::of(size);
    mdsim_kernels(m, &scale);
    theta_sim_nodes(m, &scale);
    polimer_feedback(m, &scale);
    collectives_and_controller(m, &scale);
    m.insert("par.dispatch_us", scale.ns_per_call(dispatch_trivial) / 1e3);
    obs_and_audit_codec(m, &scale);
}

fn dispatch_trivial() {
    black_box(par::global().par_map_indexed(64, |i| i));
}

fn mdsim_kernels(m: &mut BTreeMap<&'static str, f64>, scale: &Scale) {
    const NAMES: [[&str; 3]; 2] = [
        [
            "mdsim.force_ns_per_pair_1568",
            "mdsim.neighbor_rebuild_ns_per_pair_1568",
            "mdsim.engine_step_us_1568",
        ],
        [
            "mdsim.force_ns_per_pair_12544",
            "mdsim.neighbor_rebuild_ns_per_pair_12544",
            "mdsim.engine_step_us_12544",
        ],
    ];
    for (dim, [force, rebuild, step]) in scale.md_dims.into_iter().zip(NAMES) {
        let sys = water_ion_box(dim, 1.0, 11);
        let params = ForceParams::default();
        let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
        let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
        let pairs = nl.npairs() as f64;
        let mut scratch = ForceScratch::new();
        let mut s = sys.clone();
        let force_ns = scale.ns_per_call(|| {
            black_box(compute_forces_into(&mut scratch, &mut s, &nl, &coeffs, None));
        });
        m.insert(force, force_ns / pairs);
        let rebuild_ns = scale.ns_per_call(|| {
            nl.rebuild(&sys.pos);
            black_box(nl.npairs());
        });
        m.insert(rebuild, rebuild_ns / pairs);
        let mut engine = MdEngine::water_ion_benchmark(dim, 9);
        m.insert(
            step,
            scale.ns_per_call(|| {
                black_box(engine.step());
            }) / 1e3,
        );
        if dim == 1 {
            m.insert("mdsim.pairs_per_step", pairs);
        }
    }
    let schedules = [K::Rdf, K::Vacf, K::MsdFull].map(AnalysisSchedule::every_sync).to_vec();
    let mut split = SplitAnalysis::new(MdEngine::water_ion_benchmark(1, 9), schedules, 1);
    let advance_ns = scale.ns_per_call(|| drop(black_box(split.advance())));
    m.insert("mdsim.split_advance_us_1568", advance_ns / 1e3);
}

fn theta_sim_nodes(m: &mut BTreeMap<&'static str, f64>, scale: &Scale) {
    let machine = MachineConfig::theta();
    let n = scale.nodes[1];
    let new_ns = scale.ns_per_call(|| {
        black_box(Cluster::noiseless(machine.clone(), n, CapMode::Long, 110.0));
    });
    m.insert("theta-sim.cluster_new_us_per_knode", new_ns / 1e3 / (n as f64 / 1e3));
    // One phase per call, round-robin over every node, so each call meets
    // a node whose state left the cache n − 1 calls ago.
    let mut cluster = Cluster::noiseless(machine.clone(), n, CapMode::Long, 110.0);
    let mut clocks = vec![SimTime::ZERO; n];
    let mut k = 0;
    let phase_ns = scale.ns_per_call(|| {
        let work = Work::new(PhaseKind::Force, 0.001);
        clocks[k] = cluster.node_mut(k).run_phase(&machine, clocks[k], work, 1.0);
        k = (k + 1) % n;
    });
    m.insert("theta-sim.run_phase_ns", phase_ns);
}

fn polimer_feedback(m: &mut BTreeMap<&'static str, f64>, scale: &Scale) {
    const NAMES: [&str; 2] = ["polimer.power_alloc_us_128", "polimer.power_alloc_us_4392"];
    for (n, alloc_name) in scale.nodes.into_iter().zip(NAMES) {
        let world = Communicator::world(JobLayout::new(2 * n, 2));
        let role = move |node: usize| if node < n / 2 { Role::Simulation } else { Role::Analysis };
        let cfg = PowerManagerConfig::with_controller("seesaw");
        let mut mgr =
            PowerManager::init(&world, |rank| role(rank / 2), cfg).expect("seesaw is a controller");
        // One sync is `n` records then one allocation; time the two apart.
        let (mut record_ns, mut alloc_ns) = (Vec::new(), Vec::new());
        let syncs = (scale.batches * 4).max(2);
        for sync in 0..syncs {
            let t0 = Instant::now();
            for node in 0..n {
                let role = role(node);
                let time_s = if role == Role::Simulation { 4.0 } else { 2.0 + 0.01 * sync as f64 };
                black_box(mgr.record(NodeInterval {
                    node,
                    role,
                    time_s,
                    power_w: 108.0,
                    cap_w: 110.0,
                }));
            }
            let t1 = Instant::now();
            black_box(mgr.power_alloc());
            record_ns.push((t1 - t0).as_nanos() as f64 / n as f64);
            alloc_ns.push(t1.elapsed().as_nanos() as f64);
        }
        m.insert(alloc_name, median(&alloc_ns) / 1e3);
        // Overwritten by the second, larger size: its value stands.
        m.insert("polimer.record_ns", median(&record_ns));
    }
}

fn collectives_and_controller(m: &mut BTreeMap<&'static str, f64>, scale: &Scale) {
    const NAMES: [[&str; 2]; 2] = [
        ["mpisim.allreduce_ns_128", "core.on_sync_ns_128"],
        ["mpisim.allreduce_ns_4392", "core.on_sync_ns_4392"],
    ];
    let net = NetworkModel::aries();
    for (n, [allreduce, on_sync]) in scale.nodes.into_iter().zip(NAMES) {
        let world = Communicator::world(JobLayout::new(n, 1));
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ns = scale.ns_per_call(|| {
            black_box(coll::allreduce_sum(&net, &world, &vals));
        });
        m.insert(allreduce, ns);

        let mut ctl = SeeSaw::new(SeeSawConfig::paper_default(n));
        let mut obs = SyncObservation {
            step: 0,
            nodes: (0..n)
                .map(|node| NodeSample {
                    node,
                    role: if node < n / 2 { Role::Simulation } else { Role::Analysis },
                    time_s: 4.0 + (node % 7) as f64 * 0.01,
                    power_w: 105.0 + (node % 5) as f64,
                    cap_w: 110.0,
                })
                .collect(),
        };
        let ns = scale.ns_per_call(|| {
            obs.step += 1;
            black_box(ctl.on_sync(&obs));
        });
        m.insert(on_sync, ns);
    }
}

fn obs_and_audit_codec(m: &mut BTreeMap<&'static str, f64>, scale: &Scale) {
    let (nodes, steps) = scale.job;
    let cfg = || {
        let mut spec = WorkloadSpec::paper(16, nodes, 1, &[K::Rdf, K::Vacf]);
        spec.total_steps = steps;
        JobConfig::new(spec, "seesaw")
    };
    // The price of enabled tracing: the same job traced minus untraced,
    // per event recorded.
    let off_ns = scale.ns_per_call(|| drop(black_box(run_job(cfg()))));
    let on_ns = scale.ns_per_call(|| {
        drop(black_box(run_job_traced(cfg(), &Tracer::enabled())));
    });
    let tracer = Tracer::enabled();
    run_job_traced(cfg(), &tracer).expect("seesaw is a controller");
    let events = tracer.events();
    let per_event = |ns: f64| ns / events.len().max(1) as f64;
    m.insert("obs.emit_ns", per_event(on_ns - off_ns));
    let chrome_ns = scale.ns_per_call(|| drop(black_box(obs::chrome_trace(&events))));
    m.insert("obs.chrome_trace_ns_per_event", per_event(chrome_ns));
    let jsonl = tracer.to_jsonl();
    let diff_ns = scale.ns_per_call(|| {
        let d = diff_readers(jsonl.as_bytes(), jsonl.as_bytes(), DEFAULT_CONTEXT);
        assert!(matches!(d, Ok(None)), "a trace differs from itself");
    });
    m.insert("audit.diff_ns_per_line", per_event(diff_ns));
}
