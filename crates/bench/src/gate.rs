//! The perf-regression gate: a unified schema for persisted benchmark
//! results (`results/BENCH_*.json`) and the comparison logic `bench_gate`
//! runs against committed baselines.
//!
//! Every benchmark writes one document:
//!
//! ```json
//! {
//!   "bench": "trace_overhead",
//!   "profile": "quick",
//!   "metrics": [
//!     {"name": "overhead_on_pct", "value": 31.2, "unit": "pct",
//!      "max": 50, "tolerance_pct": null}
//!   ]
//! }
//! ```
//!
//! Three kinds of bound, checked independently:
//!
//! - **`max`** — an absolute ceiling the metric must never exceed,
//!   whatever the profile. Used for hard promises (tracing overhead
//!   < 50 %, force kernel under N ns per pair).
//! - **`min`** — an absolute floor, the mirror image: used for promises
//!   like "the parallel dispatch costs nothing at one thread"
//!   (`speedup ≥ ~1`).
//! - **`tolerance_pct`** — allowed relative drift versus the committed
//!   baseline value. Only checked when the fresh and baseline documents
//!   were produced under the **same profile** (comparing a `--quick` run
//!   against a `full` baseline would gate noise, not regressions), and
//!   only for metrics that declare it (deterministic counts set 0; noisy
//!   wall-clock medians set `null` and rely on `max`).
//!
//! Gate failures are [`audit::Diagnostic`]s under the `BENCH0001`…
//! `BENCH0005` codes, rendered compiler-style
//! (`error[BENCH0001] bound: …`) by the `bench_gate` binary.
//! Kernel-performance promises get their own code: floor violations and
//! ceilings on `ns/pair` metrics raise `BENCH0005` rather than the
//! generic `BENCH0001`, so a hot-path regression is distinguishable from
//! an ordinary bound failure at a glance.

use audit::diag;
use audit::json::{self, Value};
use audit::Diagnostic;
use std::fmt::Write as _;

/// One benchmark metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within the document.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit tag (`"ms"`, `"pct"`, `"count"`, `"x"`, `"ns/pair"`).
    pub unit: String,
    /// Absolute floor, or `None` when unbounded below. Violations raise
    /// `BENCH0005` (a kernel-performance promise, e.g. speedup ≥ 1).
    pub min: Option<f64>,
    /// Absolute ceiling, or `None` when unbounded.
    pub max: Option<f64>,
    /// Allowed drift vs. baseline, percent, or `None` to skip drift
    /// checking.
    pub tolerance_pct: Option<f64>,
}

impl Metric {
    /// An informational metric: recorded and drift-visible in diffs, but
    /// never gated (no floor, no ceiling, no tolerance).
    pub fn info(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            min: None,
            max: None,
            tolerance_pct: None,
        }
    }
}

/// One persisted benchmark document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Benchmark name (matches the `BENCH_<name>.json` file).
    pub bench: String,
    /// `"quick"` or `"full"`.
    pub profile: String,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl BenchDoc {
    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Parse a persisted document.
    pub fn parse(input: &str) -> Result<BenchDoc, String> {
        let v = json::parse(input).map_err(|e| format!("invalid JSON: {e}"))?;
        let bench = req_str(&v, "bench")?;
        let profile = req_str(&v, "profile")?;
        let metrics_v = v.get("metrics").ok_or("missing \"metrics\"")?;
        let rows = metrics_v.as_arr().ok_or("\"metrics\" is not an array")?;
        let mut metrics = Vec::with_capacity(rows.len());
        for row in rows {
            let name = req_str(row, "name")?;
            let value = req_f64(row, "value")?;
            let unit = req_str(row, "unit")?;
            metrics.push(Metric {
                name,
                value,
                unit,
                min: opt_f64(row, "min")?,
                max: opt_f64(row, "max")?,
                tolerance_pct: opt_f64(row, "tolerance_pct")?,
            });
        }
        Ok(BenchDoc { bench, profile, metrics })
    }

    /// Serialize (pretty, deterministic — same float rules as every other
    /// persisted artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(s, "  \"profile\": \"{}\",", self.profile);
        s.push_str("  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"min\": {}, \
                 \"max\": {}, \"tolerance_pct\": {}}}",
                m.name,
                jf(m.value),
                m.unit,
                m.min.map_or("null".to_string(), jf),
                m.max.map_or("null".to_string(), jf),
                m.tolerance_pct.map_or("null".to_string(), jf)
            );
        }
        s.push_str(if self.metrics.is_empty() { "]\n" } else { "\n  ]\n" });
        s.push_str("}\n");
        s
    }

    /// Check the document's own absolute bounds (`min` and `max`).
    pub fn check_bounds(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for m in &self.metrics {
            if let Some(min) = m.min {
                // NaN compares as a violation, never a pass.
                if m.value.partial_cmp(&min).is_none_or(|o| o == std::cmp::Ordering::Less) {
                    out.push(Diagnostic::new(
                        diag::BENCH_KERNEL,
                        format!(
                            "{}/{}: {} {} is below the required floor {} {}",
                            self.bench,
                            m.name,
                            jf(m.value),
                            m.unit,
                            jf(min),
                            m.unit
                        ),
                    ));
                }
            }
            if let Some(max) = m.max {
                // NaN compares as a violation, never a pass.
                if m.value.partial_cmp(&max).is_none_or(|o| o == std::cmp::Ordering::Greater) {
                    // ns/pair ceilings are kernel-performance promises.
                    let code =
                        if m.unit == "ns/pair" { diag::BENCH_KERNEL } else { diag::BENCH_BOUND };
                    out.push(Diagnostic::new(
                        code,
                        format!(
                            "{}/{}: {} {} exceeds the absolute bound {} {}",
                            self.bench,
                            m.name,
                            jf(m.value),
                            m.unit,
                            jf(max),
                            m.unit
                        ),
                    ));
                }
            }
        }
        out
    }

    /// How every gated bench `main` ends: write the document to
    /// `<results dir>/<file>` (`BENCH_*.json`), then check its own bounds
    /// — a run that breaks a promise **exits the process with status 1**
    /// at the source, before `bench_gate` ever diffs the persisted files.
    pub fn persist_and_gate(&self, file: &str, rep: &obs::Reporter) {
        let dir = crate::results_dir();
        let path = dir.join(file);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, self.to_json())) {
            Ok(()) => rep.note(format!("wrote {}", path.display())),
            Err(e) => rep.warn(format!("cannot write {}: {e}", path.display())),
        }
        let fails = self.check_bounds();
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("{}: {f}", self.bench);
            }
            std::process::exit(1);
        }
    }
}

/// Compare a fresh document against the committed baseline. Returns every
/// gate failure (empty = pass).
pub fn compare(fresh: &BenchDoc, baseline: &BenchDoc) -> Vec<Diagnostic> {
    let mut out = fresh.check_bounds();
    let same_profile = fresh.profile == baseline.profile;
    for base in &baseline.metrics {
        let Some(m) = fresh.metric(&base.name) else {
            out.push(Diagnostic::new(
                diag::BENCH_MISSING,
                format!(
                    "{}/{}: metric present in baseline but missing from fresh run",
                    fresh.bench, base.name
                ),
            ));
            continue;
        };
        // Drift gating needs like-for-like runs; a --quick rerun only
        // exercises the absolute bounds above.
        if !same_profile {
            continue;
        }
        let tolerance = m.tolerance_pct.or(base.tolerance_pct);
        if let Some(tol) = tolerance {
            let denom = base.value.abs().max(1e-12);
            let drift_pct = (m.value - base.value).abs() / denom * 100.0;
            // NaN compares as a violation, never a pass.
            if drift_pct.partial_cmp(&tol).is_none_or(|o| o == std::cmp::Ordering::Greater) {
                out.push(Diagnostic::new(
                    diag::BENCH_DRIFT,
                    format!(
                        "{}/{}: {} {} drifted {:.2}% from baseline {} {} (tolerance {}%)",
                        fresh.bench,
                        m.name,
                        jf(m.value),
                        m.unit,
                        drift_pct,
                        jf(base.value),
                        base.unit,
                        jf(tol)
                    ),
                ));
            }
        }
    }
    out
}

fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing or non-numeric \"{key}\""))
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => {
            x.as_f64().map(Some).ok_or_else(|| format!("field \"{key}\" is not a number or null"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(profile: &str, value: f64, max: Option<f64>, tol: Option<f64>) -> BenchDoc {
        BenchDoc {
            bench: "trace".to_string(),
            profile: profile.to_string(),
            metrics: vec![Metric {
                name: "overhead_on_pct".to_string(),
                value,
                unit: "pct".to_string(),
                min: None,
                max,
                tolerance_pct: tol,
            }],
        }
    }

    #[test]
    fn serialization_round_trips() {
        let d = doc("full", 31.25, Some(50.0), None);
        let parsed = BenchDoc::parse(&d.to_json()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn within_bounds_and_tolerance_passes() {
        let fresh = doc("full", 32.0, Some(50.0), Some(25.0));
        let base = doc("full", 30.0, Some(50.0), Some(25.0));
        assert_eq!(compare(&fresh, &base), Vec::new());
    }

    #[test]
    fn absolute_bound_violation_fails_whatever_the_profile() {
        let fresh = doc("quick", 55.0, Some(50.0), None);
        let base = doc("full", 30.0, Some(50.0), None);
        let fails = compare(&fresh, &base);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].code_str(), "BENCH0001");
        assert!(fails[0].to_string().contains("absolute bound"), "{fails:?}");
    }

    #[test]
    fn doctored_baseline_is_caught_by_drift_check() {
        // The committed baseline claims a wildly different value than the
        // fresh run reproduces: the gate must fail.
        let fresh = doc("full", 30.0, None, Some(10.0));
        let doctored = doc("full", 90.0, None, Some(10.0));
        let fails = compare(&fresh, &doctored);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].code_str(), "BENCH0002");
        assert!(fails[0].to_string().contains("drifted"), "{fails:?}");
    }

    #[test]
    fn profile_mismatch_skips_drift_but_keeps_bounds() {
        let fresh = doc("quick", 49.0, Some(50.0), Some(1.0));
        let base = doc("full", 30.0, Some(50.0), Some(1.0));
        // 63% drift would fail, but profiles differ → only bounds apply.
        assert_eq!(compare(&fresh, &base), Vec::new());
    }

    #[test]
    fn missing_metric_fails() {
        let mut fresh = doc("full", 30.0, None, None);
        fresh.metrics.clear();
        let base = doc("full", 30.0, None, None);
        let fails = compare(&fresh, &base);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].code_str(), "BENCH0003");
        assert!(fails[0].to_string().contains("missing"), "{fails:?}");
    }

    #[test]
    fn nan_value_fails_its_bound() {
        let fresh = doc("full", f64::NAN, Some(50.0), None);
        assert_eq!(fresh.check_bounds().len(), 1);
    }

    #[test]
    fn floor_violation_raises_kernel_code() {
        // A speedup floor: value below `min` is a BENCH0005 finding.
        let fresh = BenchDoc {
            bench: "md_kernels".to_string(),
            profile: "full".to_string(),
            metrics: vec![Metric {
                name: "force_eval_1568_t1_speedup".to_string(),
                value: 0.8,
                unit: "x".to_string(),
                min: Some(0.9),
                max: None,
                tolerance_pct: None,
            }],
        };
        let fails = fresh.check_bounds();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].code_str(), "BENCH0005");
        assert!(fails[0].to_string().contains("floor"), "{fails:?}");
    }

    #[test]
    fn ns_per_pair_ceiling_raises_kernel_code() {
        let fresh = BenchDoc {
            bench: "md_kernels".to_string(),
            profile: "full".to_string(),
            metrics: vec![Metric {
                name: "force_eval_1568_serial_ns_per_pair".to_string(),
                value: 40.0,
                unit: "ns/pair".to_string(),
                min: None,
                max: Some(25.0),
                tolerance_pct: None,
            }],
        };
        let fails = fresh.check_bounds();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].code_str(), "BENCH0005", "ns/pair ceilings are kernel promises");
    }

    #[test]
    fn nan_value_fails_its_floor() {
        let mut fresh = doc("full", f64::NAN, None, None);
        fresh.metrics[0].min = Some(0.5);
        assert_eq!(fresh.check_bounds().len(), 1);
    }

    #[test]
    fn min_field_round_trips_and_old_documents_parse() {
        let mut d = doc("full", 1.02, None, Some(5.0));
        d.metrics[0].min = Some(0.9);
        let parsed = BenchDoc::parse(&d.to_json()).unwrap();
        assert_eq!(parsed, d);
        // Documents persisted before the `min` field existed stay valid.
        let legacy = "{\"bench\":\"trace\",\"profile\":\"full\",\"metrics\":[{\"name\":\"m\",\
                      \"value\":1,\"unit\":\"pct\",\"max\":null,\"tolerance_pct\":null}]}";
        let parsed = BenchDoc::parse(legacy).unwrap();
        assert_eq!(parsed.metrics[0].min, None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("{\"bench\":\"x\",\"profile\":\"full\",\"metrics\":3}").is_err());
        assert!(BenchDoc::parse("not json").is_err());
    }
}
