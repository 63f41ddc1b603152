//! The five workloads. Each turns `--seed` into a fixed cycle of op
//! inputs up front; the program only ever sees those generated inputs.

mod fleet_storm;
mod md_insitu;
mod noisy_sweep;
mod theta_quiet;
mod traced_audit;

use crate::digest::Fnv;
use crate::json::Obj;
use insitu::{JobConfig, RunResult};
use std::collections::BTreeMap;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 5] =
    ["noisy_sweep", "theta_quiet", "md_insitu", "fleet_storm", "traced_audit"];

/// How much each op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The documented default sizes.
    Full,
    /// Tiny steps and node counts: every code path, seconds in a debug
    /// build. For tests only; its numbers mean nothing.
    Smoke,
}

/// What one op produced.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    /// Host time inside the program call(s), excluding the output check.
    pub wall_ns: u64,
    /// Work units completed.
    pub work: u64,
    /// FNV-1a-64 over the canonical bytes of the simulated result.
    pub digest: u64,
    pub sim_time_s: f64,
    pub sim_energy_j: f64,
}

/// One workload: a cycle of generated inputs and the op that runs one.
pub trait Workload {
    /// What `work` counts.
    fn work_unit(&self) -> &'static str;
    /// The warm-up round: ops `0..warmup_ops()`, run before timing. Op `i`
    /// runs input `i` modulo the length of the generated cycle.
    fn warmup_ops(&self) -> usize;
    /// Consecutive ops that together hold one of every kind of op. The
    /// timed window ends on a multiple of it and each granule is one
    /// latency sample, so neither depends on which kind came last.
    fn granule(&self) -> usize {
        1
    }
    /// Run op `i` the way a user would (the plain public call) and check
    /// its output. `Err` is a failed op.
    fn op(&mut self, i: usize) -> Result<OpOut, String>;
    /// Run op `i` with the harness stepping the program itself, a span
    /// around every call. Must produce the same digest as [`Self::op`].
    fn op_traced(&mut self, i: usize) -> Result<OpOut, String>;
    /// Exact simulated statistics beyond the digest and totals.
    fn sim_stats(&self, _out: &mut Obj) {}
    /// Per-layer counts this workload observed (mean per traced op).
    fn layer_counts(&self, _out: &mut BTreeMap<&'static str, f64>) {}
}

/// Build workload `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "noisy_sweep" => Box::new(noisy_sweep::NoisySweep::generate(seed, size)),
        "theta_quiet" => Box::new(theta_quiet::ThetaQuiet::generate(seed, size)),
        "md_insitu" => Box::new(md_insitu::MdInsitu::generate(seed, size)),
        "fleet_storm" => Box::new(fleet_storm::FleetStorm::generate(seed, size)),
        "traced_audit" => Box::new(traced_audit::TracedAudit::generate(seed, size)),
        _ => return None,
    })
}

/// Nanoseconds `f` took, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// The invariants every `insitu` run must satisfy, whatever the seed.
fn check_run(r: &RunResult, cfg: &JobConfig) -> Result<(), String> {
    let spec = &cfg.workload;
    let expected = spec.sync_count();
    if r.syncs.len() as u64 != expected {
        return Err(format!("{} syncs, expected {expected}", r.syncs.len()));
    }
    let budget = cfg.budget_w();
    let mut last_end = 0.0;
    for s in &r.syncs {
        if !(s.start_s >= last_end - 1e-9 && s.end_s >= s.start_s) {
            return Err(format!("sync {}: clock not monotone", s.index));
        }
        last_end = s.end_s;
        for cap in [s.sim_cap_w, s.analysis_cap_w] {
            if !(98.0..=215.0).contains(&cap) {
                return Err(format!("sync {}: cap {cap} W outside [98, 215]", s.index));
            }
        }
        let allocated =
            spec.sim_nodes as f64 * s.sim_cap_w + spec.analysis_nodes as f64 * s.analysis_cap_w;
        if allocated > budget + 1.0 {
            return Err(format!("sync {}: allocated {allocated} W > budget {budget} W", s.index));
        }
    }
    for (what, v) in [("time", r.total_time_s), ("energy", r.total_energy_j)] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("total {what} {v} is not finite and positive"));
        }
    }
    Ok(())
}

/// Fold a run's sync records and totals into `h`, bit for bit.
fn digest_run(h: &mut Fnv, r: &RunResult) {
    h.u64(r.syncs.len() as u64);
    for s in &r.syncs {
        h.u64(s.index);
        for v in [
            s.start_s,
            s.end_s,
            s.sim_time_s,
            s.analysis_time_s,
            s.sim_cap_w,
            s.analysis_cap_w,
            s.sim_power_w,
            s.analysis_power_w,
            s.slack,
            s.overhead_s,
        ] {
            h.f64(v);
        }
    }
    h.f64(r.total_time_s);
    h.f64(r.total_energy_j);
}

/// Check a run and package it as an op outcome worth `work` units.
fn run_outcome(wall_ns: u64, r: &RunResult, cfg: &JobConfig, work: u64) -> Result<OpOut, String> {
    check_run(r, cfg)?;
    let mut h = Fnv::default();
    digest_run(&mut h, r);
    Ok(OpOut {
        wall_ns,
        work,
        digest: h.value(),
        sim_time_s: r.total_time_s,
        sim_energy_j: r.total_energy_j,
    })
}

/// Step `rt` to completion exactly as `Runtime::run` does, one span per
/// call, and return its result.
fn run_stepped(mut rt: insitu::Runtime) -> RunResult {
    use crate::span::{scope, Name};
    while scope(Name::InsituStepSync, || rt.step_sync()) {
        scope(Name::InsituCompactHistory, || rt.compact_history());
    }
    scope(Name::InsituFinish, || rt.finish())
}
