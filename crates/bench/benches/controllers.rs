//! Controller-decision cost per node, and its scaling (paper Fig. 9b
//! analogue).
//!
//! The paper measures the stand-alone duration of a SeeSAw allocation step
//! across power caps on Theta (their host slows down with the cap; ours
//! does not, so the cap sweep is represented by the job-size sweep, which
//! is what actually changes the computational cost of a decision).
//!
//! A controller sits on every synchronization of every simulated job, so
//! one decision must cost O(nodes). For each of `seesaw`, `time-aware` and
//! `power-aware` this bench reports `on_sync` in ns per node at 128 and at
//! 4392 nodes (full Theta), their ratio, and the whole PoLiMER feedback
//! path (`record` × nodes + `power_alloc`) in ns per node at 4392. The
//! ratio is the gate: linear work keeps it near 1, while a quadratic term —
//! a per-node scan hiding in the prune, the lookup or the exchange —
//! multiplies it by the 34× size step. Between calls (off the clock) the
//! controller's caps are fed back into the observation and a third of the
//! nodes are pinned at their cap, so every decision takes the full path:
//! donors, claimants, slack, and a fresh per-node allocation.
//!
//! Sizes are timed interleaved, each keeping its fastest pass, so machine
//! noise hits both sides of the ratio alike. Results land in
//! `results/BENCH_controllers.json` in the unified [`bench::gate`] schema
//! and the benchmark **exits nonzero** when a ratio exceeds its bound.
//!
//! Plain timing harness (`harness = false`): the offline build carries no
//! criterion.

use bench::gate::{BenchDoc, Metric};
use mpisim::{Communicator, JobLayout, NetworkModel};
use polimer::{NodeInterval, PowerManager};
use seesaw::{controller_by_name, Allocation, NodeSample, Role, SyncObservation};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SMALL: usize = 128;
const LARGE: usize = 4392;

/// ns/node at 4392 nodes over ns/node at 128 nodes. Linear code measures
/// 0.8–1.5 (cache effects either way); a quadratic term lands near 34.
const SCALE_RATIO_MAX: f64 = 3.0;

fn role(node: usize, nodes: usize) -> Role {
    if node < nodes / 2 {
        Role::Simulation
    } else {
        Role::Analysis
    }
}

fn observation(nodes: usize) -> SyncObservation {
    let sample = |node| NodeSample {
        node,
        role: role(node, nodes),
        time_s: 4.0,
        power_w: 105.0,
        cap_w: 110.0,
    };
    SyncObservation { step: 0, nodes: (0..nodes).map(sample).collect() }
}

/// The plant between two syncs: adopt the decided caps, pin a rotating
/// third of the nodes at their cap, leave the rest a few watts under, and
/// rotate which nodes are slow.
fn feed_back(obs: &mut SyncObservation, decided: Option<&Allocation>, call: usize) {
    let mut caps = decided.map(Allocation::caps);
    for s in &mut obs.nodes {
        if let Some(caps) = &mut caps {
            s.cap_w = caps.cap_for(s.node, s.role);
        }
        let pinned = (s.node + call).is_multiple_of(3);
        s.power_w = if pinned { s.cap_w - 0.5 } else { s.cap_w - 4.0 - (s.node % 5) as f64 };
        s.time_s = 4.0 + ((s.node * 7 + call) % 11) as f64 * 0.05;
    }
}

/// Mean `on_sync` cost over `calls` decisions, ns per node.
fn on_sync_ns_per_node(name: &str, nodes: usize, calls: usize) -> f64 {
    let mut ctl = controller_by_name(name, nodes).expect("known controller");
    let mut obs = observation(nodes);
    let mut busy = Duration::ZERO;
    for call in 0..calls {
        feed_back(&mut obs, None, call);
        obs.step += 1;
        let start = Instant::now();
        let decided = black_box(ctl.on_sync(&obs));
        busy += start.elapsed();
        feed_back(&mut obs, decided.as_ref(), call);
    }
    busy.as_secs_f64() * 1e9 / (calls * nodes) as f64
}

/// Mean cost of one whole sync through PoLiMER — `record` for every node,
/// then `power_alloc` — over `syncs` syncs, ns per node.
fn power_alloc_ns_per_node(name: &str, nodes: usize, syncs: usize) -> f64 {
    let world = Communicator::world(JobLayout::new(2 * nodes, 2));
    let ctl = controller_by_name(name, nodes).expect("known controller");
    let mut mgr = PowerManager::init_with_controller(
        &world,
        |rank| role(rank / 2, nodes),
        ctl,
        NetworkModel::aries(),
        5.0e-6,
    );
    let mut obs = observation(nodes);
    let mut busy = Duration::ZERO;
    for sync in 0..syncs {
        feed_back(&mut obs, None, sync);
        let start = Instant::now();
        for s in &obs.nodes {
            black_box(mgr.record(NodeInterval {
                node: s.node,
                role: s.role,
                time_s: s.time_s,
                power_w: s.power_w,
                cap_w: s.cap_w,
            }));
        }
        let outcome = black_box(mgr.power_alloc());
        busy += start.elapsed();
        feed_back(&mut obs, outcome.allocation.as_ref(), sync);
    }
    busy.as_secs_f64() * 1e9 / (syncs * nodes) as f64
}

fn main() {
    let rep = obs::Reporter::default();
    let quick = bench::quick_mode();
    // Equal node-visits per pass at both sizes.
    let (passes, visits) = if quick { (3, 200_000) } else { (5, 2_000_000) };

    let mut metrics = Vec::new();
    for name in ["seesaw", "time-aware", "power-aware"] {
        let key = name.replace('-', "_");
        let (mut small, mut large, mut whole) = (f64::MAX, f64::MAX, f64::MAX);
        for _ in 0..passes {
            small = small.min(on_sync_ns_per_node(name, SMALL, visits / SMALL));
            large = large.min(on_sync_ns_per_node(name, LARGE, visits / LARGE));
            whole = whole.min(power_alloc_ns_per_node(name, LARGE, visits / LARGE));
        }
        let ratio = large / small;
        println!(
            "controllers/{name:<12} on_sync {small:>7.2} ns/node @{SMALL}  {large:>7.2} ns/node \
             @{LARGE}  ratio {ratio:>5.2}x   power_alloc {whole:>7.2} ns/node @{LARGE}"
        );
        metrics.push(Metric::info(&format!("{key}_on_sync_ns_per_node_{SMALL}"), small, "ns/node"));
        metrics.push(Metric::info(&format!("{key}_on_sync_ns_per_node_{LARGE}"), large, "ns/node"));
        metrics.push(Metric {
            max: Some(SCALE_RATIO_MAX),
            ..Metric::info(&format!("{key}_on_sync_scale_ratio_x"), ratio, "x")
        });
        metrics.push(Metric::info(
            &format!("{key}_power_alloc_ns_per_node_{LARGE}"),
            whole,
            "ns/node",
        ));
    }

    // Wall-clock minima are noisy across hosts → the ratio ceilings are the
    // only bounds; no drift tolerance.
    let doc = BenchDoc {
        bench: "controllers".to_string(),
        profile: if quick { "quick" } else { "full" }.to_string(),
        metrics,
    };
    doc.persist_and_gate("BENCH_controllers.json", &rep);
}
