//! Mini-LAMMPS kernel micro-benchmarks: force evaluation, neighbor-list
//! construction, one full Verlet step, and each analysis kernel over the
//! 1568-atom benchmark cell — plus the kernel-performance record for
//! `results/BENCH_kernels.json` in the unified [`bench::gate`] schema.
//!
//! The persisted document carries two gated promises per hot kernel and
//! system size:
//!
//! - **`*_serial_ns_per_pair`**: absolute nanoseconds per pair
//!   interaction on the serial path, gated with a `max` ceiling set well
//!   below the pre-SIMD kernel's cost so a regression to scalar-era
//!   performance fails the gate.
//! - **`*_allocs_per_call`**: allocator requests per warmed call, counted
//!   by the [`mdsim::alloc_probe`] global-allocator shim and gated at
//!   zero.
//!
//! `*_speedup` (force only) — the dispatching entry point under
//! `par::with_threads(1)` over the canonical serial kernel — is recorded
//! but not gated: it is a ratio of two wall-clock timings of the same
//! machine code, and the fact it stood for (a width-1 pool runs on the
//! calling thread, no dispatch) is asserted structurally in `par`'s tests.
//!
//! Wall-clock numbers are min-over-passes with the compared modes
//! interleaved, so machine noise hits both sides of every ratio alike.
//! Plain timing harness (`harness = false`): the offline build carries no
//! criterion.

use bench::gate::{BenchDoc, Metric};
use mdsim::alloc_probe::{allocations, CountingAlloc};
use mdsim::analysis::{Msd, MsdConfig, Rdf, RdfConfig, Snapshot, Vacf, VacfConfig};
use mdsim::{
    compute_forces_into, compute_forces_serial, water_ion_box, Analysis, CoeffTable, ForceParams,
    ForceScratch, MdEngine, NeighborList, PairTable,
};
use std::hint::black_box;
use std::time::Instant;

/// Counts allocator requests so the warmed hot paths can be gated at zero
/// allocations per call (the `*_allocs_per_call` metrics).
#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Absolute ceiling on serial force-kernel cost per evaluated pair. The
/// pre-SIMD kernel ran at ~28 ns/pair on the reference container and the
/// lane-batched kernel at ~19–21; the ceiling sits below the old kernel,
/// so a regression to scalar-era cost fails, with headroom for host noise.
const FORCE_NS_PER_PAIR_MAX: f64 = 26.0;

/// Absolute ceiling on neighbor-list rebuild cost per stored pair. The
/// scalar scan (gather through per-cell id lists, three divides and
/// three `round`s per candidate) ran at 42–43 ns/pair on the reference
/// container at both sizes; the cell-sorted SoA sweep with the divide-free
/// minimum image runs at 11–12. The ceiling sits at about twice the new
/// cost and well under the old, so losing the vectorized sweep fails.
const NEIGHBOR_NS_PER_PAIR_MAX: f64 = 25.0;

fn median_us(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut runs = Vec::new();
    for pass in 0..4 {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        if pass > 0 {
            runs.push(start.elapsed().as_secs_f64() / iters as f64);
        }
    }
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2] * 1e6
}

fn report(name: &str, iters: u64, f: impl FnMut(u64)) {
    println!("{name:40} {:>12.2} µs/iter", median_us(iters, f));
}

/// Wall time of one call to `f`, in µs. The gated ratios are formed from
/// per-call minima with the compared modes alternating call by call —
/// the tightest interleaving — so a noisy patch of machine time cannot
/// systematically land on one side of a ratio. A single kernel call runs
/// ~1–60 ms here, far above timer resolution.
fn call_us(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Allocator requests per call of (already warmed) `f`.
fn allocs_per_call(calls: u64, f: &mut impl FnMut()) -> f64 {
    let before = allocations();
    for _ in 0..calls {
        f();
    }
    (allocations() - before) as f64 / calls as f64
}

fn bench_force() {
    let sys = water_ion_box(1, 1.0, 7);
    let params = ForceParams::default();
    let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
    let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
    let mut scratch = ForceScratch::new();
    let mut s = sys.clone();
    report("force_eval_1568_atoms", 200, |_| {
        black_box(compute_forces_into(&mut scratch, &mut s, &nl, &coeffs, None));
    });
}

fn bench_neighbor() {
    let sys = water_ion_box(1, 1.0, 8);
    let mut nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
    report("neighbor_rebuild_1568_atoms", 200, |_| {
        nl.rebuild(&sys.pos);
        black_box(nl.npairs());
    });
}

fn bench_verlet_step() {
    let mut engine = MdEngine::water_ion_benchmark(1, 9);
    report("verlet_step_1568_atoms", 200, |_| {
        black_box(engine.step());
    });
}

fn bench_analyses() {
    let sys = water_ion_box(1, 1.0, 10);

    let mut a = Rdf::new(RdfConfig::default());
    report("analysis_observe/rdf", 100, |i| {
        black_box(a.observe(i + 1, &Snapshot::of(&sys)));
    });

    let mut a = Vacf::new(VacfConfig::default());
    report("analysis_observe/vacf", 100, |i| {
        black_box(a.observe(i + 1, &Snapshot::of(&sys)));
    });

    let mut a = Msd::new(MsdConfig::full());
    report("analysis_observe/msd_full", 100, |i| {
        black_box(a.observe(i + 1, &Snapshot::of(&sys)));
    });

    let mut a = Msd::new(MsdConfig::one_d());
    report("analysis_observe/msd1d", 100, |i| {
        black_box(a.observe(i + 1, &Snapshot::of(&sys)));
    });
}

/// One kernel's measured numbers at one system size.
struct KernelStats {
    atoms: u64,
    npairs: u64,
    serial_us: f64,
    allocs: f64,
}

/// The force kernel's numbers plus its dispatching entry point's time at
/// one thread and at the wide pool.
struct ForceStats {
    kernel: KernelStats,
    t1_us: f64,
    t4_us: f64,
}

impl KernelStats {
    fn ns_per_pair(&self) -> f64 {
        self.serial_us * 1e3 / self.npairs.max(1) as f64
    }
}

/// Measure the force and neighbor kernels at `dim`. The serial force
/// kernel, the dispatching entry at one thread, and the dispatching entry
/// at `threads` workers are timed alternating call by call, each keeping
/// its per-call minimum over `rounds` rounds.
fn bench_hot_kernels(dim: usize, threads: usize, quick: bool) -> (ForceStats, KernelStats) {
    let sys = water_ion_box(dim, 1.0, 11);
    let atoms = sys.len() as u64;
    let params = ForceParams::default();
    let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
    let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
    let rounds = if quick {
        if dim == 1 {
            12
        } else {
            5
        }
    } else if dim == 1 {
        150
    } else {
        30
    };

    // Force: serial and T1 share one warmed (scratch, system) set — they
    // run the same kernel through different entry points, and giving each
    // its own buffers lets allocator layout put a systematic few percent
    // between them. T4 keeps separate buffers (its merge path writes the same
    // output either way).
    let (mut sc_s, mut sc_4) = (ForceScratch::new(), ForceScratch::new());
    let (mut sys_s, mut sys_4) = (sys.clone(), sys.clone());
    let evaluated = par::with_threads(1, || {
        compute_forces_serial(&mut sc_s, &mut sys_s, &nl, &coeffs, None).pairs_evaluated
    });
    par::with_threads(1, || compute_forces_into(&mut sc_s, &mut sys_s, &nl, &coeffs, None));
    par::with_threads(threads, || compute_forces_into(&mut sc_4, &mut sys_4, &nl, &coeffs, None));
    let (mut serial_us, mut t1_us, mut t4_us) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..rounds {
        serial_us = serial_us.min(par::with_threads(1, || {
            call_us(&mut || {
                black_box(compute_forces_serial(&mut sc_s, &mut sys_s, &nl, &coeffs, None));
            })
        }));
        t1_us = t1_us.min(par::with_threads(1, || {
            call_us(&mut || {
                black_box(compute_forces_into(&mut sc_s, &mut sys_s, &nl, &coeffs, None));
            })
        }));
        t4_us = t4_us.min(par::with_threads(threads, || {
            call_us(&mut || {
                black_box(compute_forces_into(&mut sc_4, &mut sys_4, &nl, &coeffs, None));
            })
        }));
    }
    let allocs = par::with_threads(1, || {
        allocs_per_call(10, &mut || {
            black_box(compute_forces_into(&mut sc_s, &mut sys_s, &nl, &coeffs, None));
        })
    });
    let kernel = KernelStats { atoms, npairs: evaluated, serial_us, allocs };
    let force = ForceStats { kernel, t1_us, t4_us };

    // Neighbor rebuild: one serial sweep at any thread count.
    let n_rounds = rounds / 3 + 2;
    let mut nl_1 = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
    let mut rebuild = || {
        nl_1.rebuild(&sys.pos);
        black_box(nl_1.npairs());
    };
    rebuild();
    let n_us = (0..n_rounds).map(|_| call_us(&mut rebuild)).fold(f64::MAX, f64::min);
    let n_allocs = allocs_per_call(10, &mut rebuild);
    let neighbor =
        KernelStats { atoms, npairs: nl.npairs() as u64, serial_us: n_us, allocs: n_allocs };
    (force, neighbor)
}

fn push_force_metrics(f: &ForceStats, out: &mut Vec<Metric>) {
    let k = &f.kernel;
    let p = format!("force_eval_{}", k.atoms);
    out.push(Metric::info(&format!("{p}_serial_us"), k.serial_us, "us"));
    out.push(Metric::info(&format!("{p}_t1_us"), f.t1_us, "us"));
    out.push(Metric::info(&format!("{p}_speedup"), k.serial_us / f.t1_us, "x"));
    out.push(Metric::info(&format!("{p}_t4_us"), f.t4_us, "us"));
    out.push(Metric::info(&format!("{p}_t4_speedup"), k.serial_us / f.t4_us, "x"));
    out.push(Metric {
        name: format!("{p}_serial_ns_per_pair"),
        value: k.ns_per_pair(),
        unit: "ns/pair".to_string(),
        min: None,
        max: Some(FORCE_NS_PER_PAIR_MAX),
        tolerance_pct: Some(50.0),
    });
    out.push(Metric {
        name: format!("{p}_allocs_per_call"),
        value: k.allocs,
        unit: "count".to_string(),
        min: None,
        max: Some(0.0),
        tolerance_pct: Some(0.0),
    });
}

fn push_neighbor_metrics(k: &KernelStats, out: &mut Vec<Metric>) {
    let p = format!("neighbor_build_{}", k.atoms);
    out.push(Metric::info(&format!("{p}_serial_us"), k.serial_us, "us"));
    out.push(Metric {
        name: format!("{p}_serial_ns_per_pair"),
        value: k.ns_per_pair(),
        unit: "ns/pair".to_string(),
        min: None,
        max: Some(NEIGHBOR_NS_PER_PAIR_MAX),
        tolerance_pct: Some(50.0),
    });
    out.push(Metric {
        name: format!("{p}_allocs_per_call"),
        value: k.allocs,
        unit: "count".to_string(),
        min: None,
        max: Some(0.0),
        tolerance_pct: Some(0.0),
    });
}

fn main() {
    let rep = obs::Reporter::default();
    let quick = bench::quick_mode();
    bench_force();
    bench_neighbor();
    bench_verlet_step();
    bench_analyses();

    let threads = 4usize;
    let mut metrics = Vec::new();
    for dim in [1usize, 2] {
        let (force, neighbor) = bench_hot_kernels(dim, threads, quick);
        for (name, k) in [("force_eval", &force.kernel), ("neighbor_build", &neighbor)] {
            println!(
                "{name:14} {:>6} atoms  serial {:>10.2} µs  {:>6.2} ns/pair  {:.1} allocs/call",
                k.atoms,
                k.serial_us,
                k.ns_per_pair(),
                k.allocs
            );
        }
        println!(
            "force_eval     {:>6} atoms  T1 {:>10.2} µs  T{threads} {:>10.2} µs",
            force.kernel.atoms, force.t1_us, force.t4_us
        );
        push_force_metrics(&force, &mut metrics);
        push_neighbor_metrics(&neighbor, &mut metrics);
    }

    let doc = BenchDoc {
        bench: "md_kernels".to_string(),
        profile: if quick { "quick" } else { "full" }.to_string(),
        metrics,
    };
    doc.persist_and_gate("BENCH_kernels.json", &rep);
}
