//! Cross-thread-count determinism gates for the `par` execution layer.
//!
//! Every code path in the stack must produce *bit-identical* results at
//! any `POLIMER_THREADS` value: the MD force kernel (the one kernel with
//! parallel regions), the neighbor list, a full integrated trajectory, and
//! the coupled-runtime sweeps built on them. Each test runs the same
//! computation under `par::with_threads(1, ..)` (every region on the
//! calling thread) and at several worker counts, then compares raw f64
//! bits — not approximate equality — so any reduction-order drift fails
//! loudly. The force kernel's chunk-size variations live beside it, in
//! `mdsim`'s `force::tests`.

use insitu::{run_paired, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::{
    compute_forces_into, water_ion_box, AnalysisKind, CoeffTable, ForceParams, ForceScratch,
    MdEngine, NeighborList, PairTable,
};

/// Force evaluation on the 12 544-atom cell (dim 2), as raw bits, over the
/// pairs among its first `atoms` atoms: all of them make a list of many
/// chunks, 400 a list under one chunk (32 768 pairs).
fn force_bits(atoms: usize) -> (u64, u64, u64, Vec<u64>) {
    let mut sys = water_ion_box(2, 1.0, 99);
    let params = ForceParams::default();
    let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
    let nl = NeighborList::build(&sys.pos[..atoms], sys.box_len, params.cutoff, 0.4);
    assert_eq!(nl.npairs() < 32_768, atoms == 400, "{atoms} atoms, {} pairs", nl.npairs());
    let ev = compute_forces_into(&mut ForceScratch::new(), &mut sys, &nl, &coeffs, None);
    let fbits =
        sys.force.iter().flat_map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()]).collect();
    (ev.potential.to_bits(), ev.virial.to_bits(), ev.pairs_evaluated, fbits)
}

#[test]
fn force_eval_bit_identical_across_thread_counts() {
    for atoms in [12_544, 400] {
        let serial = par::with_threads(1, || force_bits(atoms));
        for threads in [2, 4, 8] {
            let bits = par::with_threads(threads, || force_bits(atoms));
            assert_eq!(serial, bits, "force kernel drifted at T={threads}, {atoms} atoms");
        }
        // Called from inside a width-4 region the kernel finds the pool
        // busy and runs each of its regions on the calling thread.
        let nested =
            par::with_threads(4, || par::global().par_map_indexed(2, |_| force_bits(atoms)));
        for bits in nested {
            assert_eq!(serial, bits, "force kernel drifted inside a busy region, {atoms} atoms");
        }
    }
}

#[test]
fn neighbor_list_identical_across_thread_counts() {
    let pairs = |threads: usize| {
        par::with_threads(threads, || {
            let sys = water_ion_box(2, 1.0, 7);
            NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4).pairs().to_vec()
        })
    };
    let serial = pairs(1);
    assert!(serial.len() > 100_000, "expected a dense pair list, got {}", serial.len());
    for threads in [3, 8] {
        assert_eq!(serial, pairs(threads), "pair ordering drifted at T={threads}");
    }
}

/// A 25-step velocity-Verlet trajectory (neighbor rebuilds included), as
/// raw position bits — the strictest end-to-end MD gate: any single-ulp
/// force difference compounds and shows up here.
fn trajectory_bits(threads: usize) -> Vec<u64> {
    par::with_threads(threads, || {
        let mut e = MdEngine::water_ion_benchmark(1, 123);
        for _ in 0..25 {
            e.step();
        }
        e.system.pos.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    })
}

#[test]
fn trajectory_bit_identical_across_thread_counts() {
    let serial = trajectory_bits(1);
    assert_eq!(serial, trajectory_bits(8), "trajectory drifted at T=8");
}

/// The coupled runtime's paired run (controller + static baseline) —
/// exercises `run_paired`'s pool dispatch and everything below it.
fn paired_bits(threads: usize) -> (u64, u64, usize) {
    par::with_threads(threads, || {
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
        spec.total_steps = 40;
        let (ctl, base) = run_paired(&JobConfig::new(spec, "seesaw")).expect("known controller");
        (ctl.total_time_s.to_bits(), base.total_time_s.to_bits(), ctl.syncs.len())
    })
}

#[test]
fn paired_run_bit_identical_across_thread_counts() {
    let serial = paired_bits(1);
    for threads in [2, 8] {
        assert_eq!(serial, paired_bits(threads), "paired run drifted at T={threads}");
    }
}

#[test]
fn median_improvement_bit_identical_across_thread_counts() {
    let median = |threads: usize| {
        par::with_threads(threads, || {
            let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Rdf]);
            spec.total_steps = 30;
            insitu::median_improvement(&JobConfig::new(spec, "seesaw"), 3)
                .expect("known controller")
                .to_bits()
        })
    };
    let serial = median(1);
    assert_eq!(serial, median(4), "median improvement drifted at T=4");
}
