//! A minimal JSON writer (documents are read back with `audit::json`).

use std::fmt::Write;

/// A JSON number for `v`; non-finite values have none, so `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal for `s`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A JSON array of already-serialized items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// A JSON object under construction; fields keep insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add a field whose value is already-serialized JSON.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push_str(&string(key));
        self.buf.push(':');
        self.buf.push_str(value);
        self
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, &num(v))
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &string(v))
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// `{"value": v, "unit": unit}` — the shape every metric takes.
    pub fn metric(&mut self, key: &str, v: f64, unit: &str) -> &mut Self {
        let mut m = Obj::new();
        m.num("value", v).str("unit", unit);
        self.raw(key, &m.finish())
    }

    pub fn finish(&self) -> String {
        if self.buf.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_documents_parse_back() {
        let mut inner = Obj::new();
        inner.metric("latency \"p50\"", 1.25, "ms");
        let mut o = Obj::new();
        o.num("n", 3.0).str("s", "a\\b\n\u{1}").bool("ok", true).num("bad", f64::NAN);
        o.raw("inner", &inner.finish()).raw("list", &array(["1".to_string(), "2".to_string()]));
        let v = audit::json::parse(&o.finish()).expect("valid JSON");
        assert_eq!(v.get("n").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(v.get("s").and_then(|x| x.as_str()), Some("a\\b\n\u{1}"));
        assert_eq!(v.get("ok"), Some(&audit::json::Value::Bool(true)));
        assert!(v.get("bad").and_then(|x| x.as_f64()).is_some_and(f64::is_nan));
        let m = v.get("inner").and_then(|x| x.get("latency \"p50\"")).expect("metric");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
        assert_eq!(v.get("list").and_then(|x| x.as_arr()).map(<[_]>::len), Some(2));
        assert_eq!(Obj::new().finish(), "{}");
    }
}
