//! `compare`: hold a candidate run document against a baseline, one row
//! per (end-to-end metric, workload), each against the metric's bound.

use crate::spec::spec;
use audit::json::{self, Value};
use std::fmt::Write;

/// The outcome of one comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The table, ready to print.
    pub report: String,
    /// No metric worse than its bound, no failed op, no digest moved.
    pub ok: bool,
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads").and_then(Value::as_arr).ok_or("no `workloads` list".to_string())
}

fn name_of(w: &Value) -> Result<&str, String> {
    w.get("workload").and_then(Value::as_str).ok_or("workload without a name".to_string())
}

/// Compare candidate `b` against baseline `a` (two `run` documents).
/// Relative differences are signed so that positive is worse.
pub fn compare(a: &str, b: &str) -> Result<Comparison, String> {
    let a = json::parse(a).map_err(|e| format!("baseline: {e}"))?;
    let b = json::parse(b).map_err(|e| format!("candidate: {e}"))?;
    let mut report = String::new();
    let mut ok = true;
    let _ = writeln!(
        report,
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "metric", "workload", "baseline", "candidate", "worse by", "bound"
    );
    let b_workloads = workloads(&b).map_err(|e| format!("candidate: {e}"))?;
    for wa in workloads(&a).map_err(|e| format!("baseline: {e}"))? {
        let name = name_of(wa)?;
        let Some(wb) = b_workloads.iter().find(|w| name_of(w) == Ok(name)) else {
            let _ = writeln!(report, "{name}: missing from the candidate  FAIL");
            ok = false;
            continue;
        };
        for m in &spec().end_to_end {
            let value = |w: &Value, side: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
                    .filter(|v| v.is_finite())
                    .ok_or(format!("{side}: {name} has no finite `{}`", m.name))
            };
            let (va, vb) = (value(wa, "baseline")?, value(wb, "candidate")?);
            // Equal values are equal even where no ratio exists (0 against 0).
            let worse = match (va == vb, m.higher_is_better) {
                (true, _) => 0.0,
                (false, true) => (va - vb) / va,
                (false, false) => (vb - va) / va,
            };
            let bound = m.bound.unwrap_or(0.0);
            let pass = worse <= bound;
            ok &= pass;
            let _ = writeln!(
                report,
                "{:<18} {:<14} {:>16.4} {:>16.4} {:>+8.2}% {:>6.1}%{}",
                m.name,
                name,
                va,
                vb,
                100.0 * worse,
                100.0 * bound,
                if pass { "" } else { "  FAIL" }
            );
        }
        let failed = wb.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
        if failed != 0.0 {
            let _ = writeln!(
                report,
                "failed_ops_pct     {name:<14} candidate failed {failed} ops  FAIL"
            );
            ok = false;
        }
        let seed = |w: &Value| w.get("seed").and_then(Value::as_f64);
        let digest = |w: &Value| {
            w.get("sim").and_then(|s| s.get("digest")).and_then(Value::as_str).map(str::to_string)
        };
        if seed(wa) == seed(wb) && digest(wa) != digest(wb) {
            let _ = writeln!(
                report,
                "sim.digest         {name:<14} {:>16} {:>16}  FAIL (equal seeds)",
                digest(wa).unwrap_or_default(),
                digest(wb).unwrap_or_default()
            );
            ok = false;
        }
    }
    Ok(Comparison { report, ok })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{array, Obj};

    /// A one-workload run document with `work_per_s = rate`.
    fn doc(rate: f64, digest: &str, seed: f64, failed: f64) -> String {
        let mut e2e = Obj::new();
        for m in &spec().end_to_end {
            e2e.metric(&m.name, if m.name == "work_per_s" { rate } else { 10.0 }, &m.unit);
        }
        let mut sim = Obj::new();
        sim.str("digest", digest);
        let mut w = Obj::new();
        w.str("workload", "noisy_sweep").num("seed", seed).num("failed", failed);
        w.raw("end_to_end", &e2e.finish()).raw("sim", &sim.finish());
        let mut o = Obj::new();
        o.raw("workloads", &array([w.finish()]));
        o.finish()
    }

    fn bound_of(name: &str) -> f64 {
        spec().end_to_end.iter().find(|m| m.name == name).and_then(|m| m.bound).expect("declared")
    }

    #[test]
    fn within_bound_passes_and_beyond_fails() {
        let bound = bound_of("work_per_s");
        let base = doc(1000.0, "0x1", 1.0, 0.0);
        assert!(compare(&base, &base).unwrap().ok);
        // Higher is better: a faster candidate passes however far it moved.
        assert!(compare(&base, &doc(5000.0, "0x1", 1.0, 0.0)).unwrap().ok);
        let just_inside = doc(1000.0 * (1.0 - 0.9 * bound), "0x1", 1.0, 0.0);
        assert!(compare(&base, &just_inside).unwrap().ok);
        let beyond = compare(&base, &doc(1000.0 * (1.0 - 1.5 * bound), "0x1", 1.0, 0.0)).unwrap();
        assert!(!beyond.ok);
        assert!(beyond.report.contains("FAIL"), "{}", beyond.report);
    }

    #[test]
    fn digests_must_match_only_for_equal_seeds() {
        let base = doc(1000.0, "0x1", 1.0, 0.0);
        assert!(!compare(&base, &doc(1000.0, "0x2", 1.0, 0.0)).unwrap().ok);
        assert!(compare(&base, &doc(1000.0, "0x2", 7.0, 0.0)).unwrap().ok);
    }

    #[test]
    fn any_failed_op_fails_the_comparison() {
        let base = doc(1000.0, "0x1", 1.0, 0.0);
        assert!(!compare(&base, &doc(1000.0, "0x1", 1.0, 1.0)).unwrap().ok);
    }

    #[test]
    fn malformed_documents_are_errors() {
        let base = doc(1000.0, "0x1", 1.0, 0.0);
        assert!(compare("{", &base).is_err());
        assert!(compare(&base, "{}").is_err());
        assert!(compare(&base, "{\"workloads\":[{\"workload\":\"noisy_sweep\"}]}").is_err());
        let missing = compare(&base, "{\"workloads\":[]}").unwrap();
        assert!(!missing.ok);
    }
}
