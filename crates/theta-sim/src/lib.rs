//! # theta-sim — simulated Theta (Cray XC40 / KNL) cluster power model
//!
//! The SeeSAw paper evaluates on the Theta supercomputer: Intel Xeon Phi
//! 7230 nodes with per-node RAPL power capping. This crate substitutes that
//! hardware with a calibrated model exposing exactly the behaviours the
//! paper's evaluation depends on:
//!
//! * a **power→rate** model that is linear above a floor and saturates at a
//!   per-phase demand (LAMMPS gains nothing beyond ≈140 W — paper Fig. 8);
//! * **RAPL semantics**: caps clamped to `[98 W, 215 W]`, ~10 ms actuation
//!   latency, long-term (1 s) vs. long+short-term enforcement, the latter
//!   limiting slightly below the request (paper §VII-A);
//! * **variability**: job-to-job placement effects, run-to-run bias,
//!   per-phase jitter and measurement noise, with magnitudes per cap mode
//!   calibrated against the paper's Table I;
//! * **power traces** sampled every 200 ms like the paper's Fig. 1.
//!
//! Nodes execute [`Work`] quanta tagged with a [`PhaseKind`]; the in-situ
//! runtime (crate `insitu`) feeds them the per-phase work profiles produced
//! by the real mini-MD engine (crate `mdsim`).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

#[macro_use]
mod column;
mod cluster;
mod config;
mod machine;
mod node;
mod noise;
#[cfg(test)]
mod oracle;
mod pass;
mod phase;
mod power;
mod rapl;

pub use cluster::Cluster;
pub use config::{CapMode, MachineConfig};
pub use machine::{MachineNodes, NodeLease};
pub use node::NodeMut;
pub use noise::{NoiseModel, NoiseSeed, NoiseSigmas};
pub use phase::{PhaseKind, Work};
pub use power::{rate, OpMemo, CLIFF_START_W};

#[cfg(test)]
mod randomized {
    use super::*;
    use crate::power::duration_secs;
    use des::{Rng, SimTime};

    fn pick_kind(rng: &mut Rng) -> PhaseKind {
        let all = PhaseKind::all_productive();
        all[rng.next_below(all.len() as u64) as usize]
    }

    /// Progress rate is monotone non-decreasing in the cap for every
    /// productive phase kind.
    #[test]
    fn rate_monotone() {
        let mut rng = Rng::seed_from_u64(0x007E_7A01);
        for _case in 0..128 {
            let kind = pick_kind(&mut rng);
            let lo = rng.uniform(98.0, 214.0);
            let hi = (lo + rng.uniform(0.0, 100.0)).min(215.0);
            let m = MachineConfig::theta();
            assert!(rate(&m, Work::new(kind, 1.0), hi) >= rate(&m, Work::new(kind, 1.0), lo));
        }
    }

    /// A node's draw never exceeds the enforced cap (long-term mode).
    #[test]
    fn draw_respects_cap() {
        let mut rng = Rng::seed_from_u64(0x007E_7A02);
        for _case in 0..48 {
            let kind = pick_kind(&mut rng);
            let cap = rng.uniform(98.0, 215.0);
            let work = rng.uniform(0.01, 5.0);
            let m = MachineConfig::theta();
            let mut c = Cluster::noiseless(m, 1, CapMode::Long, cap);
            let cfg = c.config().clone();
            let end = c.node_mut(0).run_phase(&cfg, SimTime::ZERO, Work::new(kind, work), 1.0);
            let mean = c.mean_power(0, SimTime::ZERO, end);
            assert!(mean <= cap + 1e-9, "mean {mean} cap {cap}");
        }
    }

    /// Energy accounting is consistent: E = mean power × duration.
    #[test]
    fn energy_consistent() {
        let mut rng = Rng::seed_from_u64(0x007E_7A03);
        for _case in 0..48 {
            let kind = pick_kind(&mut rng);
            let cap = rng.uniform(98.0, 215.0);
            let work = rng.uniform(0.01, 5.0);
            let m = MachineConfig::theta();
            let mut c = Cluster::noiseless(m, 1, CapMode::Long, cap);
            let cfg = c.config().clone();
            let end = c.node_mut(0).run_phase(&cfg, SimTime::ZERO, Work::new(kind, work), 1.0);
            let dt = end.as_secs_f64();
            let e = c.energy(0, SimTime::ZERO, end);
            let p = c.mean_power(0, SimTime::ZERO, end);
            assert!((e - p * dt).abs() < 1e-6 * e.max(1.0));
        }
    }

    /// Duration never increases when the cap rises, as long as the
    /// phase is not yet saturated.
    #[test]
    fn more_power_not_slower() {
        let mut rng = Rng::seed_from_u64(0x007E_7A04);
        for _case in 0..128 {
            let kind = pick_kind(&mut rng);
            let cap = rng.uniform(98.0, 200.0);
            let work = rng.uniform(0.1, 3.0);
            let m = MachineConfig::theta();
            let t_lo = duration_secs(&m, Work::new(kind, work), cap, 1.0);
            let t_hi = duration_secs(&m, Work::new(kind, work), cap + 15.0, 1.0);
            assert!(t_hi <= t_lo + 1e-12);
        }
    }

    /// Splitting work across a cap change conserves total work: running
    /// at a fixed cap equals the piecewise execution when the "change"
    /// sets the same cap.
    #[test]
    fn noop_cap_change_preserves_duration() {
        let mut rng = Rng::seed_from_u64(0x007E_7A05);
        for _case in 0..48 {
            let kind = pick_kind(&mut rng);
            let cap = rng.uniform(98.0, 215.0);
            let work = rng.uniform(0.1, 3.0);
            let m = MachineConfig::theta();
            let mut plain = Cluster::noiseless(m.clone(), 1, CapMode::Long, cap);
            let mut poked = Cluster::noiseless(m, 1, CapMode::Long, cap);
            let cfg = plain.config().clone();
            poked.node_mut(0).request_cap(&cfg, SimTime::ZERO, cap);
            let e1 = plain.node_mut(0).run_phase(&cfg, SimTime::ZERO, Work::new(kind, work), 1.0);
            let e2 = poked.node_mut(0).run_phase(&cfg, SimTime::ZERO, Work::new(kind, work), 1.0);
            assert_eq!(e1, e2);
        }
    }
}
