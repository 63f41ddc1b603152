//! Node history stays O(1) per node over arbitrarily long runs, and
//! compacting it between intervals changes no energy bit. (That state-
//! identical nodes sharing one walk equals every node walking is pinned
//! inside `insitu`, against its `#[cfg(test)]` node-major reference.)

use des::SimTime;
use insitu::{JobConfig, Runtime};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind as K;

#[test]
fn node_history_is_constant_over_ten_thousand_intervals() {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
    spec.total_steps = 10_000;
    let mut rt =
        Runtime::new(JobConfig::new(spec, "seesaw").with_quiet_noise()).expect("known controller");
    let nodes = 8;
    // Generous per-node constant: one interval's phases + waits + the
    // retained governing sample. The point is O(1) per node, not the
    // exact figure.
    let per_node_cap = 64;
    let mut peak = 0usize;
    let mut intervals = 0u64;
    while rt.step_sync() {
        rt.compact_history();
        peak = peak.max(rt.history_segments());
        intervals += 1;
    }
    assert_eq!(intervals, 10_000);
    assert!(
        peak <= per_node_cap * nodes,
        "history grew with run length: peak {peak} segments across {nodes} nodes"
    );
    let r = rt.finish();
    assert_eq!(r.syncs.len(), 10_000);
    assert!(r.total_energy_j > 0.0 && r.total_energy_j.is_finite());
}

#[test]
fn compacted_energy_matches_uncompacted_bit_for_bit() {
    // The same job stepped with and without between-interval compaction
    // must report bitwise-equal energy totals (the seeded fold replays
    // the reference op sequence exactly).
    let mk = || {
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Rdf]);
        spec.total_steps = 200;
        Runtime::new(JobConfig::new(spec, "seesaw")).expect("known controller")
    };
    let mut compacted = mk();
    while compacted.step_sync() {
        compacted.compact_history();
    }
    let mut plain = mk();
    while plain.step_sync() {}
    assert!(compacted.history_segments() < plain.history_segments());
    let e_compacted = compacted.energy_since(SimTime::ZERO);
    let e_plain = plain.energy_since(SimTime::ZERO);
    assert_eq!(e_compacted.to_bits(), e_plain.to_bits());
    let (a, b) = (compacted.finish(), plain.finish());
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    assert_eq!(a.syncs, b.syncs);
}
