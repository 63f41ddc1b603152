//! The benchmark's declared surface, read from the workspace's
//! `BENCHMARK.json`: workload names, metric names, units, directions and
//! regression bounds live there and nowhere else. The code computes
//! values by name; units and bounds are looked up here.

use audit::json::{self, Value};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the code needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key).and_then(Value::as_arr).ok_or(format!("BENCHMARK.json: no list `{key}`"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            let s = v.get(key).and_then(Value::as_str);
            s.map(str::to_string).ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The embedded `BENCHMARK.json`, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_surface_is_well_formed() {
        let s = spec();
        assert_eq!(s.workloads, crate::workloads::NAMES);
        assert!((1..=60).contains(&s.run_seconds));
        let mut seen = BTreeSet::new();
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(seen.insert(m.name.as_str()), "{} declared twice", m.name);
        }
        for m in &s.end_to_end {
            let b = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked_on() {
        assert!(Spec::parse("{").is_err());
        assert!(Spec::parse("{\"run_seconds\": 10}").is_err());
        assert!(Spec::parse(
            "{\"run_seconds\":1,\"workloads\":[{}],\"end_to_end\":[],\"per_layer\":[]}"
        )
        .is_err());
    }
}
