//! The workspace's one JSON value, its strict parser and its one writer
//! (the workspace carries no registry dependencies, so all three are
//! hand-rolled). It lives beside the event schema, whose strict line
//! reader is the parser's main client; `audit::json` re-exports it. Every
//! JSON document the bins persist under `results/` — figure rows, run
//! documents, benchmark records, stage profiles — is a [`Value`] printed
//! by [`Value::pretty`]; only the hot-path trace formats (the JSONL event
//! line and the Chrome-trace export) keep generated writers of their own.
//!
//! **One tokenizer, two consumers.** `Parser` is the only implementation
//! of the grammar. [`parse`] builds a [`Value`] tree on it, for artifacts,
//! where cost does not matter. [`Fields`] walks one object's top-level
//! fields on it and builds nothing, for event lines, which the strict
//! reader and the trace differ read one by one: a string without an
//! escape is a slice of the input, so such a line costs no allocation.
//!
//! Design points that matter for auditing:
//!
//! - **Objects preserve key order.** The trace serializer writes fields in
//!   a fixed per-variant order; the audit parser checks that order, so an
//!   object is a `Vec<(String, Value)>`, not a map.
//! - **Integers and floats are distinguished.** A number without `.`/`e`
//!   that fits an `i64` parses as `Int`; everything else is `Num`.
//!   Timestamps and ids must be integral; power/energy fields accept
//!   either.
//! - **Whole-input strictness.** Both consumers fail on trailing garbage,
//!   so a truncated or concatenated line can never half-parse.
//! - **Bounded nesting.** Containers nest at most 64 deep, so a hostile
//!   line cannot overflow the stack of this recursive parser.
//! - Errors carry the byte offset where parsing stopped.
//! - **One number rule on the way out** ([`Value::pretty`]): whatever the
//!   writer prints reads back as the value it printed, `Int` as `Int` and
//!   `Num` as `Num`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, **in source key order**.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Num` both read as `f64`; `Null` reads as
    /// NaN (the serializers write non-finite floats as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Non-negative integer view (ids, nanosecond timestamps, ordinals).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Look up an object field by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An object from `(key, value)` pairs, in their order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Print with two-space indentation and `": "` after each key; an
    /// empty container prints as `[]` / `{}`. Numbers follow one rule, so
    /// that `parse(pretty(v))` gives `v` back:
    ///
    /// - a non-finite float prints as `null` (persisted output carries no
    ///   NaN or infinity), and `-0.0` as `0.0`;
    /// - an integral float keeps a trailing `.0`, so a field's JSON type
    ///   never flickers between runs, and from 1e15 on takes an exponent
    ///   (`1e15`), so it still reads back as `Num`;
    /// - any other float prints in its shortest round-trip spelling.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) if !x.is_finite() => out.push_str("null"),
            Value::Num(x) if *x == x.trunc() && x.abs() < 1e15 => {
                let _ = write!(out, "{:.1}", x + 0.0);
            }
            Value::Num(x) if *x == x.trunc() => {
                let _ = write!(out, "{x:e}");
            }
            Value::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_items(out, depth, ['[', ']'], items, |out, v| v.write(out, depth + 1));
            }
            Value::Obj(fields) => write_items(out, depth, ['{', '}'], fields, |out, (k, v)| {
                write_str(out, k);
                out.push_str(": ");
                v.write(out, depth + 1);
            }),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    /// `Int`, or `Num` past `i64::MAX`.
    fn from(n: u64) -> Value {
        i64::try_from(n).map_or(Value::Num(n as f64), Value::Int)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// An object of a struct's named fields, in the order listed, each
/// converted by `Value::from`: `json_fields!(row, sync, slack)` is
/// `{"sync": row.sync, "slack": row.slack}`.
#[macro_export]
macro_rules! json_fields {
    ($s:expr, $($field:ident),+ $(,)?) => {
        $crate::json::Value::obj([
            $((stringify!($field), $crate::json::Value::from($s.$field.clone())),)+
        ])
    };
}

/// A container's items, one per line at `depth + 1`, between `open` and
/// `close` at `depth`.
fn write_items<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        indent(out, depth + 1);
        item(out, x);
    }
    if !items.is_empty() {
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// The one JSON string escaper: quote, backslash and the control
/// characters, `\n` / `\r` / `\t` by name and the rest as `\u00XX`.
fn write_str(out: &mut String, s: &str) {
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

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting the parser accepts (every document the
/// workspace writes stays in single digits).
const MAX_DEPTH: usize = 64;

/// Parse `input` as exactly one JSON value (leading/trailing whitespace
/// allowed, anything else after the value is an error).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { input, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// One field value as the [`Fields`] cursor reports it.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string: a slice of the input unless it held an escape.
    Str(Cow<'a, str>),
    /// An array or object: its syntax and depth checked, its content dropped.
    Container,
}

/// A cursor over one object's top-level fields in source order, reading
/// the input once and building nothing.
#[derive(Debug)]
pub struct Fields<'a> {
    /// Inside the object at depth 1; at depth 0 once it is closed.
    p: Parser<'a>,
    first: bool,
}

impl<'a> Fields<'a> {
    /// Start reading `input` as exactly one JSON object. `Ok(None)` means
    /// the input is some other well-formed JSON value.
    pub fn open(input: &'a str) -> Result<Option<Self>, ParseError> {
        let mut p = Parser { input, pos: 0, depth: 0 };
        p.skip_ws();
        if p.peek() == Some(b'{') {
            p.pos += 1;
            p.depth = 1;
            return Ok(Some(Fields { p, first: true }));
        }
        p.value()?;
        p.end()?;
        Ok(None)
    }

    /// The next `(key, value)`, or `None` after the closing brace — which
    /// nothing but whitespace may follow. Stops right behind the value, so
    /// what a caller concludes from a field depends on no later byte.
    /// (It and the four tokenizer steps under it are `#[inline]`: they run
    /// once per field, and the hint is worth 10–15 % of a line's read.)
    #[inline]
    pub fn next_field(&mut self) -> Result<Option<(Cow<'a, str>, Scalar<'a>)>, ParseError> {
        if self.p.depth == 0 {
            return Ok(None);
        }
        let Some(key) = self.p.key(std::mem::take(&mut self.first))? else {
            self.p.depth = 0;
            self.p.end()?;
            return Ok(None);
        };
        Ok(Some((key, self.p.scalar()?)))
    }
}

#[derive(Debug)]
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { msg: msg.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may remain.
    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal<T>(&mut self, word: &str, v: T) -> Result<T, ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Int(i) => Value::Int(i),
                Scalar::Num(x) => Value::Num(x),
                Scalar::Str(s) => Value::Str(s.into_owned()),
                Scalar::Container => unreachable!("no bracket at pos"),
            }),
        }
    }

    #[inline]
    fn scalar(&mut self) -> Result<Scalar<'a>, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'[' | b'{') => self.value().map(|_| Scalar::Container),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one container, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        while let Some(key) = self.key(fields.is_empty())? {
            fields.push((key.into_owned(), self.value()?));
        }
        Ok(Value::Obj(fields))
    }

    /// Inside an object, behind its `{` (`first`) or behind a field's
    /// value: step to the next field's value and return its key, or step
    /// past the closing brace and return `None`.
    #[inline]
    fn key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => self.pos += 1,
            _ => return Err(self.err("expected ',' or '}' in object")),
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        // Up to the first escape the string is a slice of the input; most
        // strings end before one.
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
            self.pos += 1;
        }
        let plain = &self.input[start..self.pos];
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = plain.to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while !self.input.is_char_boundary(self.pos) {
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self.input.as_bytes().get(self.pos..self.pos + 4);
        let digits = digits.ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    #[inline]
    fn number(&mut self) -> Result<Scalar<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let first_digit = self.pos;
        let int_digits = self.digits()?;
        if int_digits > 1 && self.input.as_bytes()[first_digit] == b'0' {
            return Err(ParseError { msg: "leading zero".to_string(), offset: start });
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            // Up to 18 digits cannot overflow an `i64`; a longer integer
            // takes the checked parse, and reads as a float if that fails.
            let digits = &text[first_digit - start..];
            let int = if digits.len() <= 18 {
                let magnitude = digits.bytes().fold(0, |acc, d| acc * 10 + i64::from(d - b'0'));
                Some(if digits.len() < text.len() { -magnitude } else { magnitude })
            } else {
                text.parse().ok()
            };
            if let Some(i) = int {
                return Ok(Scalar::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Scalar::Num)
            .map_err(|_| ParseError { msg: "invalid number".to_string(), offset: start })
    }

    /// Consume one-or-more ASCII digits; returns how many.
    fn digits(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("expected digit"))
        } else {
            Ok(self.pos - start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn objects_preserve_key_order() {
        let v = parse("{\"b\":1,\"a\":2}").unwrap();
        let fields = v.as_obj().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse("{\"xs\":[1,2.0,null],\"o\":{\"k\":true}}").unwrap();
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("o").unwrap().get("k").unwrap(), &Value::Bool(true));
    }

    #[test]
    fn escapes_resolve() {
        assert_eq!(parse("\"a\\n\\t\\\"\\\\b\"").unwrap(), Value::Str("a\n\t\"\\b".to_string()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".to_string()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap(), Value::Str("\u{1F600}".to_string()));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn malformed_inputs_report_offsets() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(parse("{\"a\"1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"\\uD83D\"").is_err(), "unpaired surrogate");
        assert!(parse("01").is_err(), "leading zero");
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().msg, "nesting too deep");
        // Far past any stack the recursion could have survived.
        assert!(parse(&"[{\"k\":".repeat(1_000_000)).is_err());
    }

    /// Every field of `input`, or the first error.
    fn walk(input: &str) -> Result<Vec<(String, Scalar<'_>)>, ParseError> {
        let mut fields = Fields::open(input)?.expect("an object");
        let mut out = Vec::new();
        while let Some((key, v)) = fields.next_field()? {
            out.push((key.into_owned(), v));
        }
        assert_eq!(fields.next_field(), Ok(None), "the end is sticky");
        Ok(out)
    }

    #[test]
    fn cursor_yields_top_level_fields_in_source_order() {
        let got = walk(
            " { \"b\" : 1 , \"a\":[{\"k\":[]}],\"s\":\"x\",\"n\":null,\"f\":-2.5e0,\"t\":true } ",
        )
        .unwrap();
        let want = [
            ("b", Scalar::Int(1)),
            ("a", Scalar::Container),
            ("s", Scalar::Str("x".into())),
            ("n", Scalar::Null),
            ("f", Scalar::Num(-2.5)),
            ("t", Scalar::Bool(true)),
        ];
        assert_eq!(got, want.map(|(k, v)| (k.to_string(), v)));
        assert_eq!(walk("{}").unwrap(), []);
        assert!(Fields::open("[1,2]").unwrap().is_none());
        assert!(Fields::open("[1,2").is_err());
    }

    /// The cursor is the tree parser's grammar, error for error: whatever
    /// `parse` says of an object line, a full walk says too.
    #[test]
    fn cursor_and_tree_report_the_same_errors() {
        let deep = |n: usize| format!("{{\"k\":{}1{}}}", "[".repeat(n), "]".repeat(n));
        let cases = [
            "{\"a\":}".to_string(),
            "{\"a\"1}".to_string(),
            "{\"a\":1,}".to_string(),
            "{,}".to_string(),
            "{\"a\":1 \"b\":2}".to_string(),
            "{\"a\":01}".to_string(),
            "{\"a\":1.}".to_string(),
            "{\"a\":-}".to_string(),
            "{\"a\":[1,]}".to_string(),
            "{\"a\":1} x".to_string(),
            "{\"a\":1".to_string(),
            "{\"a\":tru}".to_string(),
            deep(MAX_DEPTH - 1),
            deep(MAX_DEPTH),
        ];
        for case in &cases {
            assert_eq!(walk(case).err(), parse(case).err(), "{case}");
        }
        assert!(walk(&cases[12]).is_ok() && walk(&cases[13]).is_err());
    }

    /// A string without escapes is a slice of the input, one with escapes
    /// is rebuilt; both read the same text and fail at the same offsets.
    #[test]
    fn borrowed_and_escaped_strings_agree() {
        let string = |input: &'static str| Parser { input, pos: 0, depth: 0 }.string();
        assert!(matches!(string("\"abc\""), Ok(Cow::Borrowed("abc"))));
        assert!(matches!(string("\"\""), Ok(Cow::Borrowed(""))));
        let escaped = string("\"\\u0061bc\"").unwrap();
        assert!(matches!(escaped, Cow::Owned(_)));
        assert_eq!(escaped, "abc");
        assert_eq!(string("\"héllo\\n → ok\"").unwrap(), "héllo\n → ok");
        // (plain spelling, escaped spelling 5 bytes longer, error, offset)
        for (plain, escaped, msg, at) in [
            ("\"ab\u{1}\"", "\"\\u0061b\u{1}\"", "control character in string", 3),
            ("\"abc", "\"\\u0061bc", "unterminated string", 4),
        ] {
            let (p, e) = (string(plain).unwrap_err(), string(escaped).unwrap_err());
            assert_eq!((p.msg.as_str(), p.offset), (msg, at));
            assert_eq!((e.msg.as_str(), e.offset), (msg, at + 5));
        }
    }

    #[test]
    fn long_integers_read_as_before() {
        assert_eq!(parse("-0").unwrap(), Value::Int(0));
        assert_eq!(parse("999999999999999999").unwrap(), Value::Int(999_999_999_999_999_999));
        assert_eq!(parse("-999999999999999999").unwrap(), Value::Int(-999_999_999_999_999_999));
        assert_eq!(parse("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(parse("9223372036854775808").unwrap(), Value::Num(9_223_372_036_854_775_808.0));
    }

    #[test]
    fn null_reads_as_nan_number() {
        assert!(parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn int_float_distinction() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.0").unwrap().as_u64(), None);
        assert_eq!(parse("3.0").unwrap().as_f64(), Some(3.0));
        // Too big for i64 falls back to float.
        assert!(matches!(parse("99999999999999999999").unwrap(), Value::Num(_)));
    }

    #[test]
    fn scalars_render() {
        assert_eq!(Value::Null.pretty(), "null");
        assert_eq!(Value::Bool(true).pretty(), "true");
        assert_eq!(Value::Int(-3).pretty(), "-3");
        assert_eq!(Value::Num(1.5).pretty(), "1.5");
        assert_eq!(Value::Num(2.0).pretty(), "2.0");
        assert_eq!(Value::Num(-0.0).pretty(), "0.0");
        assert_eq!(Value::Num(1e15).pretty(), "1e15");
        assert_eq!(Value::Num(f64::NAN).pretty(), "null");
        assert_eq!(Value::Str("a\"b\r".into()).pretty(), "\"a\\\"b\\r\"");
    }

    #[test]
    fn nested_pretty_format() {
        let v = Value::obj([
            ("name", "x".into()),
            ("vals", Value::Arr(vec![Value::Int(1), Value::Int(2)])),
        ]);
        assert_eq!(v.pretty(), "{\n  \"name\": \"x\",\n  \"vals\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Arr(vec![]).pretty(), "[]");
        assert_eq!(Value::Obj(vec![]).pretty(), "{}");
    }

    /// What the writer prints reads back as the value it printed: `Int`
    /// stays `Int`, `Num` stays `Num` (however large or small), strings
    /// keep every escape — except that a non-finite float was written as
    /// `null`.
    #[test]
    fn pretty_reads_back_what_it_printed() {
        fn written(v: &Value) -> Value {
            match v {
                Value::Num(x) if !x.is_finite() => Value::Null,
                Value::Arr(xs) => Value::Arr(xs.iter().map(written).collect()),
                Value::Obj(fs) => {
                    Value::Obj(fs.iter().map(|(k, v)| (k.clone(), written(v))).collect())
                }
                v => v.clone(),
            }
        }
        let nums = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            1e-7,
            1e15 - 1.0,
            1e15,
            -1e15,
            1e20,
            1.5e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let strs =
            ["", "plain", "q\"uote", "back\\slash", "n\nr\rt\t", "\u{1}\u{1f}", "héllo → ok"];
        let mut items: Vec<Value> = nums.iter().map(|&x| Value::Num(x)).collect();
        items.extend([i64::MIN, -1, 0, 1, i64::MAX].map(Value::Int));
        items.extend(strs.map(Value::from));
        items.extend([Value::Null, Value::Bool(false), Value::Arr(vec![]), Value::Obj(vec![])]);
        let doc =
            Value::Obj(strs.iter().map(|k| (k.to_string(), Value::Arr(items.clone()))).collect());
        for v in items.iter().chain([&doc]) {
            let text = v.pretty();
            assert_eq!(parse(&text).as_ref(), Ok(&written(v)), "{text}");
        }
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"héllo → ok\"").unwrap(), Value::Str("héllo → ok".to_string()));
    }
}
