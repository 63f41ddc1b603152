//! Pins the PoLiMER measurement exchange bit for bit: the overhead every
//! exchange charges (in nanoseconds), the recoveries it logs, and the exact
//! times the controller sees once the previous exchange's overhead has
//! been carried into them. It covers healthy exchanges, message loss, one
//! to three timed-out attempts and abandoned exchanges, at 4, 128, 1 024
//! and 4 392 nodes.

use faults::RecoveryKind as K;
use mpisim::{Communicator, JobLayout};
use polimer::{
    ExchangeFaults, NodeInterval, PowerManager, PowerManagerConfig, MAX_COLLECTIVE_RETRIES,
};
use seesaw::Role;

const NODES: [usize; 4] = [4, 128, 1024, 4392];

/// Syncs whose exchange is abandoned (timeouts beyond the retry budget).
const ABANDONED: [usize; 2] = [6, 9];

/// The exchange faults of each sync, in order.
fn schedule(n: usize) -> Vec<ExchangeFaults> {
    let f =
        |lost_nodes: Vec<usize>, failed_attempts| ExchangeFaults { lost_nodes, failed_attempts };
    let abandon = MAX_COLLECTIVE_RETRIES + 1;
    vec![
        f(vec![], 0),
        f(vec![], 0),
        f(vec![1, n - 1], 0),
        f(vec![], 1),
        f(vec![], 2),
        f(vec![], 3),
        f(vec![], abandon),
        f(vec![], 0),
        f(vec![n / 2], 2),
        f(vec![], abandon + 5),
        f(vec![], 0),
        f(vec![], 0),
    ]
}

/// The recoveries each sync of [`schedule`] must log, as `(node, kind)`.
fn recoveries(n: usize) -> Vec<Vec<(usize, K)>> {
    let (lost, retried, held) = (K::SampleRejected, K::CollectiveRetried, K::AllocationHeld);
    vec![
        vec![],
        vec![],
        vec![(1, lost), (n - 1, lost)],
        vec![(0, retried)],
        vec![(0, retried)],
        vec![(0, retried)],
        vec![(0, held)],
        vec![],
        vec![(n / 2, lost), (0, retried)],
        vec![(0, held)],
        vec![],
        vec![],
    ]
}

/// `overhead.as_nanos()` of each sync of [`schedule`], per entry of [`NODES`].
const OVERHEAD_NS: [[u64; 12]; 4] = [
    [14213, 14213, 14213, 60303, 106393, 152483, 142879, 14213, 106393, 142879, 14213, 14213],
    [27595, 27595, 27595, 142405, 257215, 372025, 355911, 27595, 257215, 355911, 27595, 27595],
    [38089, 38089, 38089, 218779, 399469, 580159, 560139, 38089, 399469, 560139, 38089, 38089],
    [55999, 55999, 55999, 376729, 697459, 1018189, 994263, 55999, 697459, 994263, 55999, 55999],
];

/// FNV-1a over every decision's bits, per controller and entry of [`NODES`].
const DIGESTS: [[u64; 4]; 2] = [
    [0x865bab2be5314135, 0x5aa4d614f4b5b48a, 0x2b5395be3d341cd9, 0x11cf21b3ef409acf],
    [0x5588e964072c5201, 0x279d66767ad53313, 0xdc1115386f441fd9, 0x1c49b1c31f9589a6],
];

fn role(n: usize, node: usize) -> Role {
    if node < n / 2 {
        Role::Simulation
    } else {
        Role::Analysis
    }
}

/// The raw feedback of `node` at `sync`: times with fractional bits, so
/// adding the carried overhead rounds.
fn interval(n: usize, node: usize, sync: usize) -> NodeInterval {
    let jitter = ((node * 7 + sync * 3) % 11) as f64 * 0.37 / 11.0;
    let base = if role(n, node) == Role::Simulation { 2.5 } else { 1.0 };
    NodeInterval {
        node,
        role: role(n, node),
        time_s: base + jitter,
        power_w: 100.0 + (node % 9) as f64 * 0.75,
        cap_w: 110.0,
    }
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

/// The `(time, power)` a partition presents to the controller: the
/// slowest surviving node's raw time plus the carried overhead, and the
/// survivors' summed power, in node order.
fn partition_seen(n: usize, sync: usize, r: Role, lost: &[usize], carry_s: f64) -> (f64, f64) {
    let (mut t, mut p) = (0.0f64, 0.0);
    for iv in (0..n).map(|node| interval(n, node, sync)) {
        if iv.role == r && !lost.contains(&iv.node) {
            t = t.max(iv.time_s + carry_s);
            p += iv.power_w;
        }
    }
    (t, p)
}

#[test]
fn every_exchange_is_pinned_to_the_nanosecond_and_the_bit() {
    for (c, controller) in ["seesaw", "hierarchical-seesaw"].into_iter().enumerate() {
        for (k, n) in NODES.into_iter().enumerate() {
            let world = Communicator::world(JobLayout::new(2 * n, 2));
            let cfg = PowerManagerConfig::with_controller(controller);
            let mut mgr = PowerManager::init(&world, |rank| role(n, rank / 2), cfg).expect("known");
            let tracer = obs::Tracer::enabled();
            mgr.set_tracer(&tracer);
            let (plan, want_recoveries) = (schedule(n), recoveries(n));
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut overheads = Vec::new();
            let mut carry_s = 0.0;
            for (sync, faults) in plan.iter().enumerate() {
                for node in 0..n {
                    assert!(mgr.record(interval(n, node, sync)));
                }
                let out = mgr.power_alloc_with(faults);
                let got: Vec<(usize, K)> = out
                    .recoveries
                    .iter()
                    .inspect(|r| assert_eq!(r.sync, sync as u64))
                    .map(|r| (r.node, r.kind))
                    .collect();
                assert_eq!(got, want_recoveries[sync], "{controller} n={n} sync {sync}");
                let decides = sync > 0 && !ABANDONED.contains(&sync);
                assert_eq!(out.allocation.is_some(), decides, "{controller} n={n} sync {sync}");
                overheads.push(out.overhead.as_nanos());
                fnv(&mut digest, out.overhead.as_nanos());
                if let Some(a) = &out.allocation {
                    fnv(&mut digest, a.sim_node_w.to_bits());
                    fnv(&mut digest, a.analysis_node_w.to_bits());
                    for &(node, w) in &a.per_node_w {
                        fnv(&mut digest, node as u64);
                        fnv(&mut digest, w.to_bits());
                    }
                }
                // The controller's α = 1/(T·P) of each partition, read off
                // the decision event, is the seen time's exact function.
                let decisions: Vec<_> = tracer
                    .events()
                    .into_iter()
                    .filter_map(|e| match e.ev {
                        obs::Event::Decision(d) if d.sync == sync as u64 => Some(d),
                        _ => None,
                    })
                    .collect();
                assert_eq!(decisions.len(), decides as usize, "{controller} n={n} sync {sync}");
                for d in decisions {
                    for (r, alpha) in
                        [(Role::Simulation, d.alpha_sim), (Role::Analysis, d.alpha_analysis)]
                    {
                        let (t, p) = partition_seen(n, sync, r, &faults.lost_nodes, carry_s);
                        assert_eq!(
                            alpha.to_bits(),
                            (1.0 / (t * p)).to_bits(),
                            "{controller} n={n} sync {sync} {r:?}: seen time is raw + carry"
                        );
                        fnv(&mut digest, alpha.to_bits());
                    }
                }
                carry_s = out.overhead.as_secs_f64();
            }
            assert_eq!(overheads, OVERHEAD_NS[k], "{controller} n={n} overheads");
            assert_eq!(digest, DIGESTS[c][k], "{controller} n={n} digest {digest:#018x}");
        }
    }
}
