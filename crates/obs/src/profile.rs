//! Opt-in wall-clock stage profiler.
//!
//! Everything else in this crate is keyed on **simulated** time so that
//! traces and reports are byte-deterministic. This module is the one
//! deliberate exception: it measures where *wall* time goes in the
//! pipeline stages themselves (force eval, neighbor rebuild, governor
//! epochs, `step_sync`, the audit fold), feeding the same log₂-bucket
//! [`Histogram`] the metrics registry uses. Its output —
//! `profile_<bin>.json` — is therefore nondeterministic by construction
//! and is **excluded from every byte-diff gate** in `scripts/verify.sh`;
//! it exists to give kernel and scheduling work a measured baseline, not
//! a reproducibility artifact.
//!
//! Design constraints:
//!
//! - **Zero cost when off.** The enabled check is one relaxed atomic
//!   load; a disabled [`StageTimer`] holds no `Instant` and its drop is a
//!   no-op. Hot loops (per-step force evaluation) can therefore keep
//!   their timers unconditionally.
//! - **Zero dependencies.** `std::time::Instant` plus the crate's own
//!   histogram; no global ctor tricks, just a `OnceLock`'d table.
//! - **Process-global.** Stages are instrumented deep inside `mdsim`,
//!   `insitu`, `sched`, and `audit`, far from any handle the bins could
//!   thread through; a global keyed by stage name keeps the
//!   instrumentation one line per site.

use crate::hist::Histogram;
use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Schema version stamped into `profile_<bin>.json` (bumped on any
/// layout change so the differs can refuse cross-version comparisons).
pub(crate) const PROFILE_SCHEMA_VERSION: u32 = 1;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<BTreeMap<String, Histogram>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, Histogram>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Turn the profiler on or off process-wide. The bins call this once
/// their `--profile` flag has parsed; everything else just plants timers.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether stage timers are currently recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Discard all recorded stage timings (tests; between profiled runs).
pub fn reset() {
    table().lock().expect("profiler table poisoned").clear();
}

/// Record one wall-clock observation for `stage` directly (spans that
/// are awkward to scope with a guard).
pub fn record(stage: &str, elapsed_ns: u64) {
    if !is_enabled() {
        return;
    }
    let mut t = table().lock().expect("profiler table poisoned");
    t.entry(stage.to_string()).or_default().observe(elapsed_ns);
}

/// Start timing a stage. The returned guard records the elapsed wall
/// time into the stage's histogram when dropped; when the profiler is
/// disabled the guard is inert (no clock read, no lock).
pub fn timer(stage: &'static str) -> StageTimer {
    StageTimer { stage, start: if is_enabled() { Some(Instant::now()) } else { None } }
}

/// RAII wall-clock timer for one pipeline stage (see [`timer`]).
#[must_use = "the timer records on drop; binding it to _ discards the measurement scope"]
pub struct StageTimer {
    stage: &'static str,
    start: Option<Instant>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            record(self.stage, ns);
        }
    }
}

/// A snapshot of every stage histogram recorded so far, name-sorted.
pub fn snapshot() -> Vec<(String, Histogram)> {
    let t = table().lock().expect("profiler table poisoned");
    t.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// The current profile as the `profile_<bin>.json` document: per-stage
/// count, exact min/max/mean/total, and bucket-resolution p50/p95/p99.
/// Wall-clock values — nondeterministic, never byte-diffed.
pub fn to_value() -> Value {
    let stage = |h: &Histogram| {
        Value::obj([
            ("count", h.count.into()),
            ("min_ns", if h.count == 0 { 0 } else { h.min_ns }.into()),
            ("max_ns", h.max_ns.into()),
            ("mean_ns", h.mean_ns().into()),
            ("total_ns", h.sum_ns().into()),
            ("p50_ns", h.quantile_ns(0.50).into()),
            ("p95_ns", h.quantile_ns(0.95).into()),
            ("p99_ns", h.quantile_ns(0.99).into()),
        ])
    };
    let stages = snapshot().iter().map(|(name, h)| (name.clone(), stage(h))).collect();
    Value::obj([
        ("schema_version", u64::from(PROFILE_SCHEMA_VERSION).into()),
        ("stages", Value::Obj(stages)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global state; the tests below share it, so
    // they run under one lock to keep `cargo test`'s parallel harness
    // from interleaving enable/reset calls.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_timer_records_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        {
            let _t = timer("test.noop");
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_timer_records_one_observation() {
        let _g = serial();
        reset();
        set_enabled(true);
        {
            let _t = timer("test.stage");
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "test.stage");
        assert_eq!(snap[0].1.count, 1);
        reset();
    }

    #[test]
    fn json_carries_schema_version_and_quantiles() {
        let _g = serial();
        reset();
        set_enabled(true);
        record("a.stage", 1000);
        record("a.stage", 3000);
        set_enabled(false);
        let v = to_value();
        assert!(v.pretty().starts_with("{\n  \"schema_version\": 1,\n  \"stages\": {"));
        let stage = v.get("stages").and_then(|s| s.get("a.stage")).expect("stage recorded");
        assert_eq!(stage.get("count"), Some(&Value::Int(2)));
        assert_eq!(stage.get("total_ns"), Some(&Value::Num(4000.0)));
        assert!(stage.get("p99_ns").is_some());
        reset();
    }
}
