//! The live metrics registry: counters, gauges, and fixed-bucket
//! deterministic histograms maintained incrementally as events stream
//! past — the constant-memory replacement for whole-trace report walks.
//!
//! Two properties carry the whole design:
//!
//! - **Determinism.** Every accumulator is a pure fold over its inputs
//!   with no wall-clock, no hashing, no allocation-order dependence:
//!   fixed bucket edges (powers of two over nanoseconds), exact
//!   compensated sums (Shewchuk partials, so addition is associative up
//!   to the final collapse), and `BTreeMap` name tables. Feeding the same
//!   events always yields bit-identical state.
//! - **Merge-order independence.** [`Registry::merge`] combines two
//!   registries by summing counts, taking the later gauge write (total
//!   order on `(t_ns, value)` bits), and adding histograms
//!   bucket-by-bucket. Counter/histogram merge is commutative and
//!   associative, so a `par` fan-in over per-run registries produces the
//!   same bytes regardless of which worker finishes first.
//!
//! State is O(names × buckets) — independent of event volume — which is
//! what lets an at-scale sweep keep its metrics without keeping its
//! trace.
//!
//! The numeric accumulators themselves ([`ExactSum`], [`Histogram`])
//! live in [`obs::hist`] so the wall-clock stage profiler can share
//! them; they are re-exported here so `audit::{ExactSum, Histogram}`
//! keeps working.

use crate::json::Value;
use std::collections::BTreeMap;

pub use obs::hist::{ExactSum, Histogram, HISTOGRAM_BUCKETS};

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Add one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
}

/// A last-write-wins sampled value, ordered by sim-time stamp.
///
/// Merging two gauges keeps the write with the larger `(t_ns, value)`
/// key — `value` compared by `total_cmp` so ties at the same instant
/// resolve identically on every merge order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// Sim-time of the retained write, nanoseconds.
    pub t_ns: u64,
    /// The retained value.
    pub value: f64,
}

impl Gauge {
    /// Record a write at `t_ns` (kept only if it is the latest so far).
    pub fn set(&mut self, t_ns: u64, value: f64) {
        if (t_ns, value.total_cmp(&self.value)) >= (self.t_ns, std::cmp::Ordering::Equal) {
            *self = Gauge { t_ns, value };
        }
    }

    /// Keep the later of two writes.
    pub fn merge(&mut self, other: &Gauge) {
        self.set(other.t_ns, other.value);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { t_ns: 0, value: f64::NEG_INFINITY }
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Names are `BTreeMap` keys, so iteration (and therefore
/// serialization) is name-sorted regardless of registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// `map[name]`, created on first use — the only time the name is copied
/// (`entry` would want an owned key on every lookup).
pub(crate) fn named<'m, T>(
    map: &'m mut BTreeMap<String, T>,
    name: &str,
    new: impl FnOnce() -> T,
) -> &'m mut T {
    if !map.contains_key(name) {
        map.insert(name.to_string(), new());
    }
    map.get_mut(name).expect("present or just inserted")
}

impl Registry {
    /// Named counter, created on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        named(&mut self.counters, name, Counter::default)
    }

    /// Named gauge, created on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        named(&mut self.gauges, name, Gauge::default)
    }

    /// Named histogram, created on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        named(&mut self.histograms, name, Histogram::default)
    }

    /// Read a counter (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.0)
    }

    /// Read a gauge's retained value (None when absent or never set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).filter(|g| g.t_ns > 0 || g.value.is_finite()).map(|g| g.value)
    }

    /// Read a histogram (None when absent).
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold another registry in: counters add, gauges keep the later
    /// write, histograms add bucket-by-bucket. Commutative and
    /// associative for counters and histograms; gauges resolve by the
    /// total `(t_ns, value)` order, so fan-in order cannot change the
    /// result.
    pub fn merge(&mut self, other: &Registry) {
        for (name, c) in &other.counters {
            self.counter(name).add(c.0);
        }
        for (name, g) in &other.gauges {
            self.gauge(name).merge(g);
        }
        for (name, h) in &other.histograms {
            self.histogram(name).merge(h);
        }
    }

    /// The registry as the `metrics` section of the run document,
    /// name-sorted — the fingerprint the determinism tests compare.
    /// Histogram summaries carry bucket-exact p50/p95/p99 (nearest-rank
    /// over the fixed log₂ buckets, clamped into the observed range —
    /// deterministic).
    pub fn to_value(&self) -> Value {
        fn named<T>(map: &BTreeMap<String, T>, f: impl Fn(&T) -> Value) -> Value {
            Value::Obj(map.iter().map(|(name, x)| (name.clone(), f(x))).collect())
        }
        let histogram = |h: &Histogram| {
            let buckets = h.nonzero_buckets().into_iter();
            let buckets = buckets.map(|(low, c)| Value::Arr(vec![low.into(), c.into()]));
            Value::obj([
                ("count", h.count.into()),
                ("min_ns", if h.count == 0 { 0 } else { h.min_ns }.into()),
                ("max_ns", h.max_ns.into()),
                ("sum_ns", h.sum_ns().into()),
                ("p50_ns", h.quantile_ns(0.50).into()),
                ("p95_ns", h.quantile_ns(0.95).into()),
                ("p99_ns", h.quantile_ns(0.99).into()),
                ("buckets", Value::Arr(buckets.collect())),
            ])
        };
        Value::obj([
            ("counters", named(&self.counters, |c| c.0.into())),
            ("gauges", named(&self.gauges, |g| obs::json_fields!(g, t_ns, value))),
            ("histograms", named(&self.histograms, histogram)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_keeps_the_latest_write_in_any_merge_order() {
        let mut a = Gauge::default();
        a.set(10, 5.0);
        a.set(30, 7.5);
        let mut b = Gauge::default();
        b.set(20, 100.0);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.value, 7.5);
        // Same-instant tie: larger value (by total_cmp) wins regardless of
        // which side merges into which.
        let mut x = Gauge::default();
        x.set(40, 1.0);
        let mut y = Gauge::default();
        y.set(40, 2.0);
        let mut xy = x;
        xy.merge(&y);
        let mut yx = y;
        yx.merge(&x);
        assert_eq!(xy, yx);
        assert_eq!(xy.value, 2.0);
    }

    #[test]
    fn registry_merge_is_order_independent_bytes() {
        let mut a = Registry::default();
        a.counter("syncs").add(3);
        a.gauge("allocated_w").set(100, 440.0);
        a.histogram("wait_ns").observe(1_000);
        a.histogram("wait_ns").observe(9_000);
        let mut b = Registry::default();
        b.counter("syncs").add(4);
        b.counter("faults").inc();
        b.gauge("allocated_w").set(200, 880.0);
        b.histogram("wait_ns").observe(2_000_000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_value().pretty(), ba.to_value().pretty());
        assert_eq!(ab.counter_value("syncs"), 7);
        assert_eq!(ab.counter_value("faults"), 1);
        assert_eq!(ab.gauge_value("allocated_w"), Some(880.0));
        assert_eq!(ab.get_histogram("wait_ns").unwrap().count, 3);
    }

    #[test]
    fn registry_json_is_name_sorted_and_stable() {
        let mut r = Registry::default();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        let j = r.to_value().pretty();
        assert!(j.starts_with("{\n  \"counters\": {\n    \"alpha\": 1,"), "{j}");
        assert!(j.find("alpha").unwrap() < j.find("zeta").unwrap());
    }

    #[test]
    fn registry_json_quantile_summaries_pin_to_hand_computed_buckets() {
        // Same hand-built contents as the obs::hist pinning test, checked
        // end-to-end through the serialized metrics document: 10×3 ns
        // (bucket 1), 5×12 ns (bucket 3), 5×100 ns (bucket 6); n = 20.
        let mut r = Registry::default();
        for _ in 0..10 {
            r.histogram("stage_ns").observe(3);
        }
        for _ in 0..5 {
            r.histogram("stage_ns").observe(12);
        }
        for _ in 0..5 {
            r.histogram("stage_ns").observe(100);
        }
        let v = r.to_value();
        let h = v.get("histograms").and_then(|h| h.get("stage_ns")).expect("histogram");
        let field = |k: &str| h.get(k).and_then(Value::as_u64);
        // p50 rank 10 → bucket 1, upper edge 3; p95 rank 19 and p99 rank
        // 20 → bucket 6, upper edge 127 clamped to max 100.
        assert_eq!(
            [field("p50_ns"), field("p95_ns"), field("p99_ns")],
            [Some(3), Some(100), Some(100)]
        );
        assert_eq!(h.get("buckets"), crate::json::parse("[[2,10],[8,5],[64,5]]").ok().as_ref());
    }
}
