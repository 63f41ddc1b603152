//! Per-node state stays O(1) over arbitrarily long runs, and restarting the
//! `energy_since` window between intervals changes no energy bit. (That the
//! phase-major walk equals every node walking alone is pinned inside
//! `insitu`, against its `#[cfg(test)]` node-major reference.)

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
    // A streaming tracer keeps nothing itself, but every node's span buffer
    // fills and drains each interval.
    rt.set_tracer(&obs::Tracer::streaming());
    let nodes = 8;
    // Generous per-node constant: the node's columns plus one interval's
    // spans. The point is O(1) per node, not the exact figure.
    let per_node_cap = 4096;
    let mut peak = 0usize;
    let mut settled = 0usize;
    let mut intervals = 0u64;
    while rt.step_sync() {
        rt.compact_history();
        peak = peak.max(rt.retained_bytes());
        intervals += 1;
        if intervals == 100 {
            settled = rt.retained_bytes();
        }
    }
    assert_eq!(intervals, 10_000);
    assert!(
        peak <= per_node_cap * nodes,
        "per-node state grew with run length: peak {peak} bytes across {nodes} nodes"
    );
    assert_eq!(rt.retained_bytes(), settled, "per-node state grew after interval 100");
    let r = rt.finish();
    assert_eq!(r.syncs.len(), 10_000);
    assert!(r.total_energy_j > 0.0 && r.total_energy_j.is_finite());
}

#[test]
fn compacted_energy_matches_uncompacted_bit_for_bit() {
    // The same job stepped with and without restarting the `energy_since`
    // window between intervals must report bitwise-equal energy totals:
    // the run total is folded apart from the restarted window.
    let mk = || {
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Rdf]);
        spec.total_steps = 200;
        Runtime::new(JobConfig::new(spec, "seesaw")).expect("known controller")
    };
    let mut compacted = mk();
    let mut mark = SimTime::ZERO;
    while compacted.step_sync() {
        // The last window spans the final three intervals.
        if compacted.completed_syncs() < 197 {
            compacted.compact_history();
            mark = compacted.now();
        }
    }
    let mut plain = mk();
    while plain.step_sync() {}
    let e_compacted = compacted.energy_since(SimTime::ZERO);
    let e_plain = plain.energy_since(SimTime::ZERO);
    assert_eq!(e_compacted.to_bits(), e_plain.to_bits());
    // The restarted window did restart.
    let since = compacted.energy_since(mark);
    assert!(mark > SimTime::ZERO && since > 0.0 && since < e_compacted, "{since} of {e_compacted}");
    let (a, b) = (compacted.finish(), plain.finish());
    assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
    assert_eq!(a.syncs, b.syncs);
}
