//! # seesaw — power allocation for power-constrained in-situ analytics
//!
//! Reproduction of the controller family from *"SeeSAw: Optimizing
//! Performance of In-Situ Analytics Applications under Power Constraints"*
//! (Marincic, Vishwanath, Hoffmann — IPDPS 2020).
//!
//! A space-shared in-situ job couples a **simulation** partition and an
//! **analysis** partition that synchronize periodically under a global
//! power budget. Whichever partition reaches the synchronization first
//! idles — burning power without progress. This crate provides:
//!
//! * [`SeeSaw`] — the paper's contribution: uses **energy** (`T × P`)
//!   feedback to compute, in one step, the power split that makes both
//!   partitions arrive together (Eqs. 1–4);
//! * [`PowerAware`] — the SLURM-style baseline that shifts power from
//!   below-cap nodes to at-cap nodes;
//! * `TimeAware` (`"time-aware"`) — the GEOPM power-balancer-style
//!   baseline that shifts power from fast nodes to slow nodes with a
//!   decaying step;
//! * `StaticAlloc` (`"static"`) — the equal, never-changing split;
//! * [`model`] — the analytic two-task model behind the formulation.
//!
//! [`controller_by_name`] builds any of them by name. All controllers
//! implement [`Controller`] and are driven by the runtime
//! (crate `polimer`) at each simulation↔analysis synchronization.
//!
//! ```
//! use seesaw::{Controller, SeeSaw, SeeSawConfig, NodeSample, Role, SyncObservation};
//!
//! let mut ctl = SeeSaw::new(SeeSawConfig::paper_default(2));
//! let obs = SyncObservation {
//!     step: 1,
//!     nodes: vec![
//!         NodeSample { node: 0, role: Role::Simulation, time_s: 4.0, power_w: 108.0, cap_w: 110.0 },
//!         NodeSample { node: 1, role: Role::Analysis,  time_s: 2.0, power_w: 100.0, cap_w: 110.0 },
//!     ],
//! };
//! let alloc = ctl.on_sync(&obs).expect("w = 1 allocates at every sync");
//! // The higher-energy simulation partition receives more power.
//! assert!(alloc.sim_node_w > alloc.analysis_node_w);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod controller;
mod hierarchical;
pub mod model;
mod node_map;
mod power_aware;
#[cfg(test)]
mod reference;
mod seesaw;
mod static_alloc;
mod time_aware;
mod types;
mod waterfill;

use hierarchical::{HierarchicalConfig, HierarchicalSeeSaw};
use power_aware::PowerAwareConfig;
use static_alloc::StaticAlloc;
use time_aware::{TimeAware, TimeAwareConfig};

pub use controller::Controller;
pub use power_aware::PowerAware;
pub use seesaw::{EwmaMode, SeeSaw, SeeSawConfig};
pub use types::{Allocation, Limits, NodeSample, Role, SyncObservation};
pub use waterfill::water_fill;

/// The controller names [`controller_by_name`] accepts.
pub const CONTROLLER_NAMES: [&str; 5] =
    ["seesaw", "power-aware", "time-aware", "static", "hierarchical-seesaw"];

/// A controller name that [`controller_by_name`] does not recognize.
///
/// `polimer::PowerManager::init` and `insitu::build_controller` return it:
/// a recoverable error listing the valid names instead of an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownController {
    /// The rejected name, verbatim.
    pub name: String,
}

impl std::fmt::Display for UnknownController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown controller {:?} (expected one of: {})",
            self.name,
            CONTROLLER_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownController {}

/// Construct a controller from a name — the paper's four (`seesaw`,
/// `power-aware`, `time-aware`, `static`) plus the §VIII extension
/// `hierarchical-seesaw` — over a job's budget, window and per-node limits;
/// every other parameter keeps its paper default. Unknown names yield
/// [`UnknownController`].
pub fn controller_by_name(
    name: &str,
    budget_w: f64,
    window: usize,
    limits: Limits,
) -> Result<Box<dyn Controller>, UnknownController> {
    let seesaw = SeeSawConfig { budget_w, window, limits, ..SeeSawConfig::paper_default(0) };
    let pa = PowerAwareConfig { budget_w, window, limits, ..PowerAwareConfig::paper_default(0) };
    // Time-aware runs at every sync, so w has no effect (§VI-B).
    let ta = TimeAwareConfig { budget_w, limits, ..TimeAwareConfig::paper_default(0) };
    let hierarchical = HierarchicalConfig { seesaw, gamma: 0.5 };
    Ok(match name {
        "seesaw" => Box::new(SeeSaw::new(seesaw)),
        "power-aware" => Box::new(PowerAware::new(pa)),
        "time-aware" => Box::new(TimeAware::new(ta)),
        "static" => Box::new(StaticAlloc::new()),
        "hierarchical-seesaw" => Box::new(HierarchicalSeeSaw::new(hierarchical)),
        other => return Err(UnknownController { name: other.to_string() }),
    })
}

#[cfg(test)]
mod randomized {
    use super::*;
    use des::Rng;

    fn obs(
        step: u64,
        t_s: f64,
        p_s: f64,
        cap_s: f64,
        t_a: f64,
        p_a: f64,
        cap_a: f64,
    ) -> SyncObservation {
        SyncObservation {
            step,
            nodes: vec![
                NodeSample {
                    node: 0,
                    role: Role::Simulation,
                    time_s: t_s,
                    power_w: p_s,
                    cap_w: cap_s,
                },
                NodeSample {
                    node: 1,
                    role: Role::Analysis,
                    time_s: t_a,
                    power_w: p_a,
                    cap_w: cap_a,
                },
            ],
        }
    }

    /// SeeSAw never violates the budget or the per-node limits, for any
    /// sequence of (bounded) observations. Randomized with a fixed seed
    /// (the offline stand-in for the old proptest property).
    #[test]
    fn seesaw_always_within_budget_and_limits() {
        let mut rng = Rng::seed_from_u64(0xC0_01);
        let budget = 220.0;
        for _case in 0..64 {
            let len = 1 + rng.next_below(39) as usize;
            let mut ctl = SeeSaw::new(SeeSawConfig::paper_default(2));
            let (mut cap_s, mut cap_a) = (110.0, 110.0);
            for i in 0..len {
                let t_s = rng.uniform(0.1, 100.0);
                let p_s = rng.uniform(90.0, 220.0);
                let t_a = rng.uniform(0.1, 100.0);
                let p_a = rng.uniform(90.0, 220.0);
                if let Some(a) = ctl.on_sync(&obs(i as u64 + 1, t_s, p_s, cap_s, t_a, p_a, cap_a)) {
                    cap_s = a.sim_node_w;
                    cap_a = a.analysis_node_w;
                }
                assert!(cap_s + cap_a <= budget + 1e-6, "budget violated");
                assert!((98.0..=215.0).contains(&cap_s));
                assert!((98.0..=215.0).contains(&cap_a));
            }
        }
    }

    /// Time-aware likewise stays within budget and limits.
    #[test]
    fn time_aware_always_within_budget_and_limits() {
        let mut rng = Rng::seed_from_u64(0xC0_02);
        for _case in 0..64 {
            let len = 1 + rng.next_below(39) as usize;
            let mut ctl = TimeAware::new(TimeAwareConfig::paper_default(2));
            let (mut cap_s, mut cap_a) = (110.0, 110.0);
            for i in 0..len {
                let t_s = rng.uniform(0.1, 100.0);
                let t_a = rng.uniform(0.1, 100.0);
                if let Some(a) = ctl.on_sync(&obs(
                    i as u64 + 1,
                    t_s,
                    cap_s - 1.0,
                    cap_s,
                    t_a,
                    cap_a - 1.0,
                    cap_a,
                )) {
                    cap_s = a.cap_for(0, Role::Simulation);
                    cap_a = a.cap_for(1, Role::Analysis);
                }
                assert!(cap_s + cap_a <= 220.0 + 1e-6);
                assert!((98.0..=215.0).contains(&cap_s));
                assert!((98.0..=215.0).contains(&cap_a));
            }
        }
    }

    /// Power-aware likewise stays within budget and limits.
    #[test]
    fn power_aware_always_within_budget_and_limits() {
        let mut rng = Rng::seed_from_u64(0xC0_03);
        for _case in 0..64 {
            let len = 1 + rng.next_below(39) as usize;
            let mut ctl = PowerAware::new(PowerAwareConfig::paper_default(2));
            let (mut cap_s, mut cap_a) = (110.0, 110.0);
            for i in 0..len {
                let p_s = rng.uniform(90.0, 115.0);
                let p_a = rng.uniform(90.0, 115.0);
                let o = obs(i as u64 + 1, 1.0, p_s.min(cap_s), cap_s, 1.0, p_a.min(cap_a), cap_a);
                if let Some(a) = ctl.on_sync(&o) {
                    cap_s = a.cap_for(0, Role::Simulation);
                    cap_a = a.cap_for(1, Role::Analysis);
                }
                assert!(cap_s + cap_a <= 220.0 + 1e-6);
                assert!(cap_s >= 98.0 && cap_a >= 98.0);
            }
        }
    }

    /// Under arbitrary node-dropout sequences — nodes vanishing from the
    /// observation, the budget renormalized to the survivors — every
    /// controller keeps the alive caps within `[δ_min, δ_max]`, never
    /// exceeds the original facility budget, and whenever it reallocates,
    /// respects the shrunk budget too (ΣP ≤ C).
    #[test]
    fn dropouts_never_break_budget_or_limits() {
        let mut rng = Rng::seed_from_u64(0xC0_05);
        let total = 8usize;
        let per_node = 110.0;
        for name in ["seesaw", "time-aware", "power-aware", "static"] {
            for _case in 0..24 {
                let mut ctl = controller_by_name(name, per_node * total as f64, 1, Limits::theta())
                    .expect("known controller");
                let mut alive = vec![true; total];
                let mut caps = vec![per_node; total];
                let budget0 = per_node * total as f64;
                let mut budget = budget0;
                for step in 1..30u64 {
                    // Maybe drop a node, keeping both partitions non-empty.
                    if rng.next_f64() < 0.2 {
                        let victim = rng.next_below(total as u64) as usize;
                        let sim_side = victim < total / 2;
                        let peers =
                            (0..total).filter(|&n| alive[n] && (n < total / 2) == sim_side).count();
                        if alive[victim] && peers > 1 {
                            alive[victim] = false;
                            budget = per_node * alive.iter().filter(|&&a| a).count() as f64;
                            ctl.set_budget_w(budget);
                        }
                    }
                    let nodes: Vec<NodeSample> = (0..total)
                        .filter(|&n| alive[n])
                        .map(|n| NodeSample {
                            node: n,
                            role: if n < total / 2 { Role::Simulation } else { Role::Analysis },
                            time_s: rng.uniform(0.5, 20.0),
                            power_w: rng.uniform(90.0, caps[n]),
                            cap_w: caps[n],
                        })
                        .collect();
                    let allocated = ctl.on_sync(&SyncObservation { step, nodes });
                    if let Some(a) = &allocated {
                        for n in (0..total).filter(|&n| alive[n]) {
                            let role =
                                if n < total / 2 { Role::Simulation } else { Role::Analysis };
                            caps[n] = a.cap_for(n, role);
                        }
                    }
                    let alive_total: f64 = (0..total).filter(|&n| alive[n]).map(|n| caps[n]).sum();
                    assert!(
                        alive_total <= budget0 + 1e-6,
                        "{name}: facility budget violated: {alive_total} > {budget0}"
                    );
                    if allocated.is_some() {
                        assert!(
                            alive_total <= budget + 1e-6,
                            "{name}: renormalized budget violated: {alive_total} > {budget}"
                        );
                    }
                    for n in (0..total).filter(|&n| alive[n]) {
                        assert!(
                            (98.0..=215.0).contains(&caps[n]),
                            "{name}: node {n} cap {} outside δ limits",
                            caps[n]
                        );
                    }
                }
            }
        }
    }

    /// For linear-plant feedback, SeeSAw's allocation converges: the
    /// final cap adjustment is no larger than the first.
    #[test]
    fn seesaw_converges_on_linear_plant() {
        let mut rng = Rng::seed_from_u64(0xC0_04);
        for _case in 0..64 {
            let e_s = rng.uniform(200.0, 600.0);
            let e_a = rng.uniform(200.0, 600.0);
            let mut ctl = SeeSaw::new(SeeSawConfig::paper_default(2));
            let (mut cap_s, mut cap_a) = (110.0, 110.0);
            let mut deltas = Vec::new();
            for step in 1..30u64 {
                let t_s = e_s / cap_s;
                let t_a = e_a / cap_a;
                if let Some(a) = ctl.on_sync(&obs(step, t_s, cap_s, cap_s, t_a, cap_a, cap_a)) {
                    deltas.push((a.sim_node_w - cap_s).abs());
                    cap_s = a.sim_node_w;
                    cap_a = a.analysis_node_w;
                }
            }
            let first = deltas.first().copied().unwrap_or(0.0);
            let last = deltas.last().copied().unwrap_or(0.0);
            assert!(last <= first.max(0.5) + 1e-9, "first {first} last {last}");
        }
    }
}
