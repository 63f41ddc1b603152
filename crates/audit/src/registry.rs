//! The live metrics registry: counters, gauges, and fixed-bucket
//! deterministic histograms maintained incrementally as events stream
//! past — the constant-memory replacement for whole-trace report walks.
//!
//! **Fixed slots.** The streaming auditor writes exactly twelve metrics:
//! six counters, three gauges and three histograms. Each is a slot of a
//! fixed array, indexed by its `CounterId`, `GaugeId` or
//! `HistogramId`, so a write costs an index, not a name lookup. A slot
//! is empty until its first write, and only written slots appear in the
//! document, each under its name. The ids are declared in name order, so
//! the document is name-sorted.
//!
//! **Determinism.** Every accumulator is a pure fold over its inputs
//! with no wall-clock, no hashing, no allocation-order dependence: fixed
//! bucket edges (powers of two over nanoseconds) and integer sums.
//! Feeding the same events always yields bit-identical state.
//!
//! State is O(slots × buckets) — independent of event volume — which is
//! what lets an at-scale sweep keep its metrics without keeping its
//! trace.

use crate::hist::Histogram;
use crate::json::Value;

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counter(pub u64);

impl Counter {
    /// Add one.
    pub(crate) fn inc(&mut self) {
        self.0 += 1;
    }
}

/// A last-write-wins sampled value, ordered by sim-time stamp.
///
/// A write is kept if its `(t_ns, value)` key is at least the retained
/// one's — `value` compared by `total_cmp`, so of two writes at the same
/// instant the larger value wins whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gauge {
    /// Sim-time of the retained write, nanoseconds.
    pub t_ns: u64,
    /// The retained value.
    pub value: f64,
}

impl Gauge {
    /// Record a write at `t_ns` (kept only if it is the latest so far).
    pub(crate) fn set(&mut self, t_ns: u64, value: f64) {
        if (t_ns, value.total_cmp(&self.value)) >= (self.t_ns, std::cmp::Ordering::Equal) {
            *self = Gauge { t_ns, value };
        }
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { t_ns: 0, value: f64::NEG_INFINITY }
    }
}

/// Declares one id enum, in name order, and its names.
macro_rules! slots {
    ($(#[$doc:meta])* $id:ident, $names:ident: $($variant:ident = $name:literal),+ $(,)?) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum $id {
            $(#[doc = $name] $variant),+
        }

        /// Every name, in slot (and so in name) order.
        const $names: &[&str] = &[$($name),+];
    };
}

slots!(
    /// A counter slot.
    CounterId, COUNTERS:
    CapImmediate = "cap_immediate",
    Events = "events",
    Faults = "faults",
    Recoveries = "recoveries",
    Samples = "samples",
    Syncs = "syncs",
);

slots!(
    /// A gauge slot.
    GaugeId, GAUGES:
    AllocatedW = "allocated_w",
    BudgetW = "budget_w",
    JobsRunning = "jobs_running",
);

slots!(
    /// A histogram slot.
    HistogramId, HISTOGRAMS:
    CapActuationLatency = "cap_actuation_latency_ns",
    Phase = "phase_ns",
    Wait = "wait_ns",
);

/// The streaming auditor's counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: [Option<Counter>; COUNTERS.len()],
    gauges: [Option<Gauge>; GAUGES.len()],
    histograms: [Option<Histogram>; HISTOGRAMS.len()],
}

/// The slot named `name` among `slots` (`names` in slot order).
fn by_name<'s, T>(names: &[&str], slots: &'s [Option<T>], name: &str) -> Option<&'s T> {
    slots[names.iter().position(|n| *n == name)?].as_ref()
}

impl Registry {
    /// A counter, created on first use.
    pub(crate) fn counter(&mut self, id: CounterId) -> &mut Counter {
        self.counters[id as usize].get_or_insert_with(Counter::default)
    }

    /// A gauge, created on first use.
    pub(crate) fn gauge(&mut self, id: GaugeId) -> &mut Gauge {
        self.gauges[id as usize].get_or_insert_with(Gauge::default)
    }

    /// A histogram, created on first use.
    pub(crate) fn histogram(&mut self, id: HistogramId) -> &mut Histogram {
        self.histograms[id as usize].get_or_insert_with(Histogram::default)
    }

    /// Read a counter by name (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        by_name(COUNTERS, &self.counters, name).map_or(0, |c| c.0)
    }

    /// Read a gauge's retained value by name (None when absent or never
    /// set).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let g = by_name(GAUGES, &self.gauges, name)?;
        (g.t_ns > 0 || g.value.is_finite()).then_some(g.value)
    }

    /// Read a [`Histogram`] by name (None when absent).
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        by_name(HISTOGRAMS, &self.histograms, name)
    }

    /// The registry as the `metrics` section of the run document,
    /// name-sorted — the fingerprint the determinism tests compare.
    /// Histogram summaries carry bucket-exact p50/p95/p99 (nearest-rank
    /// over the fixed log₂ buckets, clamped into the observed range —
    /// deterministic).
    pub fn to_value(&self) -> Value {
        fn written<T>(names: &[&str], slots: &[Option<T>], f: impl Fn(&T) -> Value) -> Value {
            let slots = names.iter().zip(slots);
            Value::Obj(slots.filter_map(|(n, x)| Some((n.to_string(), f(x.as_ref()?)))).collect())
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
            ("counters", written(COUNTERS, &self.counters, |c| c.0.into())),
            ("gauges", written(GAUGES, &self.gauges, |g| obs::json_fields!(g, t_ns, value))),
            ("histograms", written(HISTOGRAMS, &self.histograms, histogram)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_keeps_the_latest_write_in_any_merge_order() {
        // Later stamps win whatever order the writes arrive in.
        let mut a = Gauge::default();
        a.set(30, 7.5);
        a.set(10, 5.0);
        a.set(20, 100.0);
        assert_eq!(a, Gauge { t_ns: 30, value: 7.5 });
        // Same-instant tie: the larger value (by total_cmp) wins in either
        // order.
        for (first, second) in [(1.0, 2.0), (2.0, 1.0)] {
            let mut x = Gauge::default();
            x.set(40, first);
            x.set(40, second);
            assert_eq!(x, Gauge { t_ns: 40, value: 2.0 });
        }
    }

    #[test]
    fn registry_json_is_name_sorted_and_stable() {
        let mut r = Registry::default();
        r.counter(CounterId::Syncs).inc();
        r.counter(CounterId::CapImmediate).inc();
        let j = r.to_value().pretty();
        assert!(j.starts_with("{\n  \"counters\": {\n    \"cap_immediate\": 1,"), "{j}");
        assert!(j.find("cap_immediate").unwrap() < j.find("syncs").unwrap());
        assert!(!j.contains("events"), "an unwritten slot stays out: {j}");
    }

    #[test]
    fn slots_are_declared_in_name_order() {
        for names in [COUNTERS, GAUGES, HISTOGRAMS] {
            assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        }
    }

    #[test]
    fn registry_json_quantile_summaries_pin_to_hand_computed_buckets() {
        // Same hand-built contents as the hist pinning test, checked
        // end-to-end through the serialized metrics document: 10×3 ns
        // (bucket 1), 5×12 ns (bucket 3), 5×100 ns (bucket 6); n = 20.
        let mut r = Registry::default();
        for _ in 0..10 {
            r.histogram(HistogramId::Phase).observe(3);
        }
        for _ in 0..5 {
            r.histogram(HistogramId::Phase).observe(12);
        }
        for _ in 0..5 {
            r.histogram(HistogramId::Phase).observe(100);
        }
        let v = r.to_value();
        let h = v.get("histograms").and_then(|h| h.get("phase_ns")).expect("histogram");
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
