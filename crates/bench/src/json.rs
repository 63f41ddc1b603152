//! Figure and table rows as JSON values.
//!
//! The workspace builds with no registry dependencies, so instead of
//! `serde::Serialize` the harness converts its rows with [`ToJson`] into
//! [`obs::json::Value`] — the one JSON value type, whose one writer
//! ([`Value::pretty`]) prints every artifact: object keys keep insertion
//! order, floats follow one number rule, and indentation is fixed at two
//! spaces, which is what the artifact regeneration gates
//! (`scripts/verify.sh`) rely on.

use obs::json::Value;

/// Conversion into a JSON [`Value`] (the harness's stand-in for
/// `serde::Serialize`).
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

/// [`ToJson`] for the types a [`Value`] converts from.
macro_rules! via_from {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::from(self.clone())
            }
        })+
    };
}
via_from!(Value, f64, u64, String, &str);

impl ToJson for u32 {
    fn to_json(&self) -> Value {
        Value::from(u64::from(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::from(*self as u64)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Implement [`ToJson`] for a struct by listing its fields:
///
/// ```ignore
/// json_struct!(Row { sync, cap_w, slack });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> obs::json::Value {
                obs::json::Value::obj([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    #[test]
    fn struct_macro_preserves_field_order() {
        struct Row {
            b: f64,
            a: u64,
        }
        json_struct!(Row { b, a });
        let j = Row { b: 0.5, a: 7 }.to_json();
        assert_eq!(j.pretty(), "{\n  \"b\": 0.5,\n  \"a\": 7\n}");
    }

    #[test]
    fn output_is_deterministic() {
        let v = vec![1.0f64, 2.5, 3.25];
        assert_eq!(v.to_json().pretty(), v.to_json().pretty());
    }

    /// Every kind of document the workspace writes reads back as the
    /// value it was printed from: a figure's rows, the run document's
    /// sections (a report with violations, health rows, a registry with a
    /// histogram). Non-finite floats, which print as `null`, are left out.
    #[test]
    fn every_written_document_reads_back() {
        let reads_back = |v: Value| assert_eq!(parse(&v.pretty()), Ok(v.clone()), "{}", v.pretty());

        let quick = crate::experiments::find("fig8_power_caps").expect("a row of the table");
        for (name, body) in &crate::experiments::run_selection(&[quick], true)[0].files {
            if name.ends_with(".json") {
                let rows = parse(body).expect("the figure's rows parse");
                assert_eq!(&rows.pretty(), body, "{name} prints back byte for byte");
            }
        }

        let mut auditor = audit::StreamAuditor::new();
        let events = obs::TraceEvent::one_of_each();
        events.iter().for_each(|e| auditor.feed(e));
        let run = auditor.finish();
        assert!(!run.report.violations.is_empty(), "one event of each kind breaks invariants");
        assert!(run.registry.get_histogram("phase_ns").is_some());
        reads_back(run.report.to_value());
        run.health.iter().for_each(|h| reads_back(h.to_value()));
        reads_back(run.registry.to_value());
        reads_back(parse(&run.to_json()).expect("the run document parses"));
    }
}
