//! Minimal hand-rolled JSON emission.
//!
//! The workspace builds with no registry dependencies, so instead of
//! `serde_json` the experiment harness carries its own small JSON value
//! model and pretty-printer. Output formatting is deterministic: object
//! keys keep insertion order, floats print via Rust's shortest-roundtrip
//! formatter, and indentation is fixed at two spaces — which is what the
//! artifact regeneration gates (`scripts/verify.sh`) rely on.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (non-finite values serialize as `null`, matching
    /// the controllers' contract that NaN/∞ never reach persisted output).
    Num(f64),
    /// An integer that must not pass through `f64` (sync indices, seeds).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Pretty-print with two-space indentation (serde_json-style).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        // Integral floats keep a trailing ".0" so a field's
                        // JSON type never flickers between runs.
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value (the harness's stand-in for
/// `serde::Serialize`).
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Int(i64::from(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as i64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
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
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::Int(-3).pretty(), "-3");
        assert_eq!(Json::Num(1.5).pretty(), "1.5");
        assert_eq!(Json::Num(2.0).pretty(), "2.0");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Str("a\"b".into()).pretty(), "\"a\\\"b\"");
    }

    #[test]
    fn nested_pretty_format() {
        let v = Json::obj([
            ("name", Json::Str("x".into())),
            ("vals", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(v.pretty(), "{\n  \"name\": \"x\",\n  \"vals\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
    }

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
}
