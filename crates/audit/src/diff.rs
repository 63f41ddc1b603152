//! The run explainer's divergence engine: a streaming two-trace
//! comparator and a report/metrics attribution differ.
//!
//! Every determinism gate in `scripts/verify.sh` bottoms out in "are
//! these two artifacts byte-identical?". This module answers the next
//! question — *where and why not* — without weakening the gates:
//!
//! - [`TraceDiffer`] walks two JSONL traces line-by-line in **constant
//!   memory** (O(entities × K) context rings, independent of trace
//!   length), byte-compares each line pair, and on the first mismatch
//!   parses both lines to name the field that diverged and whether it
//!   was the timestamp, the event kind, or a payload value. The result
//!   renders as a compiler-grade `DIFF0001`/`DIFF0002` diagnostic with a
//!   causal context window: the last K events per involved node /
//!   machine / job before the divergence point.
//! - [`diff_artifacts`] compares two persisted JSON documents (a
//!   `run_*` run document or a `profile_*` stage profile): a byte-equal
//!   fast path, a `schema_version` gate (`DIFF0005`), a generic
//!   field-level walk with a relative noise threshold (`DIFF0003`), and
//!   attribution notes read from a run document's `report` and `metrics`
//!   sections — per-phase time/energy deltas, critical-path shift,
//!   registry counter/histogram movement — so a `bench_gate` drift
//!   failure names the phases and nodes that moved instead of just the
//!   violated bound.
//!
//! The primary detector is **byte** comparison, exactly what the shell
//! `diff` gates checked: field attribution only refines the explanation,
//! it never declares byte-different lines equal.

use crate::diag::{self, Diagnostic};
use crate::json::{self, Fields, Scalar, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::BufRead;

/// Default causal-context window: events retained per involved entity.
pub const DEFAULT_CONTEXT: usize = 5;

/// What moved at the first divergent line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aspect {
    /// The `t` timestamp differs.
    Time,
    /// The `ev` tag (or the field layout itself) differs.
    EventKind,
    /// A payload field differs.
    Value,
    /// One trace ended while the other continues.
    Truncation,
}

impl Aspect {
    /// Human tag for diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            Aspect::Time => "time",
            Aspect::EventKind => "event kind",
            Aspect::Value => "value",
            Aspect::Truncation => "truncation",
        }
    }
}

/// The first point where two traces stop agreeing, plus the causal
/// context needed to explain it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDivergence {
    /// 1-based line number of the first divergent line pair.
    pub line: u64,
    /// What kind of field moved.
    pub aspect: Aspect,
    /// The field that diverged (`None` when the lines did not parse as
    /// flat event objects).
    pub field: Option<String>,
    /// Side A's line (`None` when A ended first).
    pub a_line: Option<String>,
    /// Side B's line (`None` when B ended first).
    pub b_line: Option<String>,
    /// Last-K-events windows, keyed by entity label (`"node 3"`,
    /// `"machine 1"`, `"job 2"`, plus the `"(any)"` global window):
    /// `(label, [(line_no, line)])` for every entity the divergent lines
    /// involve, in label order.
    pub context: Vec<(String, Vec<(u64, String)>)>,
}

impl TraceDivergence {
    /// The namespaced diagnostic: `DIFF0002` for truncation, `DIFF0001`
    /// for a divergent event.
    pub fn diagnostic(&self) -> Diagnostic {
        match (&self.a_line, &self.b_line) {
            (Some(_), None) => Diagnostic::new(
                diag::DIFF_TRUNCATED,
                format!("trace B ends before line {}; trace A continues", self.line),
            ),
            (None, Some(_)) => Diagnostic::new(
                diag::DIFF_TRUNCATED,
                format!("trace A ends before line {}; trace B continues", self.line),
            ),
            _ => {
                let field = match &self.field {
                    Some(f) => format!("field `{f}`"),
                    None => "line".to_string(),
                };
                Diagnostic::new(
                    diag::DIFF_TRACE,
                    format!(
                        "first divergent event at line {}: {} differs ({})",
                        self.line,
                        field,
                        self.aspect.tag()
                    ),
                )
            }
        }
    }

    /// Compiler-grade rendering: the diagnostic line, the two divergent
    /// lines, and the per-entity context windows.
    pub fn render(&self, a_name: &str, b_name: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.diagnostic());
        match &self.a_line {
            Some(l) => {
                let _ = writeln!(s, "  --> {a_name}:{}\n      {l}", self.line);
            }
            None => {
                let _ = writeln!(s, "  --> {a_name}: <end of trace>");
            }
        }
        match &self.b_line {
            Some(l) => {
                let _ = writeln!(s, "  --> {b_name}:{}\n      {l}", self.line);
            }
            None => {
                let _ = writeln!(s, "  --> {b_name}: <end of trace>");
            }
        }
        if !self.context.is_empty() {
            let _ = writeln!(s, "  context (shared prefix before line {}):", self.line);
            for (label, rows) in &self.context {
                let _ = writeln!(s, "    {label}:");
                for (no, line) in rows {
                    let _ = writeln!(s, "      {no:>8} | {line}");
                }
            }
        }
        s
    }
}

/// The kinds of entity a trace line can involve, by field key.
const ENTITY_KEYS: [&str; 3] = ["node", "machine", "job"];

/// One entity, by kind (an [`ENTITY_KEYS`] entry) and id.
type Entity = (&'static str, u64);

/// The global context window's key and label (events regardless of entity).
const ANY: Entity = ("(any)", 0);

/// The entities a trace line involves, read off the line's top-level
/// fields (for each kind, the first field of that key, if it holds a
/// non-negative integer). Unparseable lines involve no entity and only
/// land in the global window.
fn entities(line: &str) -> impl Iterator<Item = Entity> {
    fn ids(line: &str) -> Option<[Option<u64>; 3]> {
        let mut fields = Fields::open(line).ok()??;
        let (mut ids, mut seen) = ([None; 3], [false; 3]);
        while let Some((key, v)) = fields.next_field().ok()? {
            let Some(i) = ENTITY_KEYS.iter().position(|k| *k == key) else { continue };
            if let (false, Scalar::Int(n)) = (seen[i], v) {
                ids[i] = u64::try_from(n).ok();
            }
            seen[i] = true;
        }
        Some(ids)
    }
    let ids = ids(line).unwrap_or_default();
    ENTITY_KEYS.into_iter().zip(ids).filter_map(|(kind, id)| Some((kind, id?)))
}

/// Name the first differing field between two parsed event lines.
fn attribute(a: &str, b: &str) -> (Aspect, Option<String>) {
    let (Ok(va), Ok(vb)) = (json::parse(a), json::parse(b)) else {
        return (Aspect::Value, None);
    };
    let (Some(fa), Some(fb)) = (va.as_obj(), vb.as_obj()) else {
        return (Aspect::Value, None);
    };
    let n = fa.len().max(fb.len());
    for i in 0..n {
        match (fa.get(i), fb.get(i)) {
            (Some((ka, xa)), Some((kb, xb))) => {
                if ka != kb {
                    // Different field layout at the same position: the
                    // events are of different kinds.
                    return (Aspect::EventKind, Some(format!("{ka}/{kb}")));
                }
                if xa != xb {
                    return match ka.as_str() {
                        "t" => (Aspect::Time, Some("t".to_string())),
                        "ev" => (Aspect::EventKind, Some("ev".to_string())),
                        _ => (Aspect::Value, Some(ka.clone())),
                    };
                }
            }
            (Some((k, _)), None) | (None, Some((k, _))) => {
                return (Aspect::Value, Some(k.clone()));
            }
            (None, None) => unreachable!("i < max(len)"),
        }
    }
    // Bytes differ but parsed values agree (e.g. `1e3` vs `1000.0`):
    // still a divergence — the gates compare bytes.
    (Aspect::Value, None)
}

/// The streaming comparator: feed one line pair at a time; stops at the
/// first divergence. Memory is O(entities × K) — constant in trace
/// length.
#[derive(Debug)]
pub struct TraceDiffer {
    k: usize,
    line: u64,
    rings: BTreeMap<Entity, VecDeque<(u64, String)>>,
}

impl Default for TraceDiffer {
    fn default() -> Self {
        Self::new(DEFAULT_CONTEXT)
    }
}

impl TraceDiffer {
    /// A differ retaining the last `context` events per entity.
    pub fn new(context: usize) -> Self {
        TraceDiffer { k: context.max(1), line: 0, rings: BTreeMap::new() }
    }

    fn remember(&mut self, line: &str) {
        for entity in std::iter::once(ANY).chain(entities(line)) {
            let ring = self.rings.entry(entity).or_default();
            // A full ring hands its oldest slot's buffer to the newcomer: a
            // warmed-up differ copies bytes and allocates nothing.
            let full = ring.len() == self.k;
            let mut slot = if full { ring.pop_front().expect("k >= 1").1 } else { String::new() };
            slot.clear();
            slot.push_str(line);
            ring.push_back((self.line, slot));
        }
    }

    /// The context windows for a divergence whose lines involve
    /// `involved` entities (always includes the global window), in label
    /// order.
    fn context_for(
        &self,
        involved: impl Iterator<Item = Entity>,
    ) -> Vec<(String, Vec<(u64, String)>)> {
        // The only place an entity is spelled out as `"node 7"`.
        let window = |e: Entity| {
            let label = if e == ANY { e.0.to_string() } else { format!("{} {}", e.0, e.1) };
            Some((label, self.rings.get(&e)?.iter().cloned().collect()))
        };
        let mut windows: Vec<_> = std::iter::once(ANY).chain(involved).filter_map(window).collect();
        windows.sort_unstable();
        windows.dedup();
        windows
    }

    /// Feed the next line from each side (`None` = that side ended).
    /// Returns the divergence the moment the sides stop agreeing;
    /// `None` while they still agree (including both-ended).
    pub fn feed(&mut self, a: Option<&str>, b: Option<&str>) -> Option<TraceDivergence> {
        self.line += 1;
        match (a, b) {
            (None, None) => {
                self.line -= 1; // nothing consumed
                None
            }
            (Some(la), Some(lb)) if la == lb => {
                self.remember(la);
                None
            }
            (Some(la), Some(lb)) => {
                let (aspect, field) = attribute(la, lb);
                let involved = entities(la).chain(entities(lb));
                Some(TraceDivergence {
                    line: self.line,
                    aspect,
                    field,
                    a_line: Some(la.to_string()),
                    b_line: Some(lb.to_string()),
                    context: self.context_for(involved),
                })
            }
            (Some(la), None) => {
                let involved = entities(la);
                Some(TraceDivergence {
                    line: self.line,
                    aspect: Aspect::Truncation,
                    field: None,
                    a_line: Some(la.to_string()),
                    b_line: None,
                    context: self.context_for(involved),
                })
            }
            (None, Some(lb)) => {
                let involved = entities(lb);
                Some(TraceDivergence {
                    line: self.line,
                    aspect: Aspect::Truncation,
                    field: None,
                    a_line: None,
                    b_line: Some(lb.to_string()),
                    context: self.context_for(involved),
                })
            }
        }
    }
}

/// The next line of `reader`, read into `buf` and cut where
/// [`BufRead::lines`] cuts it; `None` at end of input.
fn next_line<'b>(r: &mut impl BufRead, buf: &'b mut String) -> std::io::Result<Option<&'b str>> {
    buf.clear();
    if r.read_line(buf)? == 0 {
        return Ok(None);
    }
    Ok(Some(buf.strip_suffix('\n').map_or(&**buf, |l| l.strip_suffix('\r').unwrap_or(l))))
}

/// Compare two buffered line sources to the first divergence (streaming,
/// constant memory: one reused line buffer per side). `Ok(None)` means
/// the sources are byte-identical.
pub fn diff_readers(
    mut a: impl BufRead,
    mut b: impl BufRead,
    context: usize,
) -> std::io::Result<Option<TraceDivergence>> {
    let mut differ = TraceDiffer::new(context);
    let (mut buf_a, mut buf_b) = (String::new(), String::new());
    loop {
        let na = next_line(&mut a, &mut buf_a)?;
        let nb = next_line(&mut b, &mut buf_b)?;
        if na.is_none() && nb.is_none() {
            return Ok(None);
        }
        if let Some(d) = differ.feed(na, nb) {
            return Ok(Some(d));
        }
    }
}

/// Options for the artifact differ.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactDiffOptions {
    /// Relative noise threshold for numeric fields: values within
    /// `rel_tol · max(|a|,|b|)` of each other are considered equal. `0.0`
    /// is exact (the determinism-gate setting); `bench_gate` attribution
    /// uses a small nonzero value so float dust does not drown the
    /// fields that actually moved.
    pub rel_tol: f64,
    /// Cap on per-field `DIFF0003` diagnostics (a trailing note counts
    /// the rest).
    pub max_findings: usize,
}

impl Default for ArtifactDiffOptions {
    fn default() -> Self {
        ArtifactDiffOptions { rel_tol: 0.0, max_findings: 16 }
    }
}

/// The artifact differ's result: namespaced diagnostics (empty =
/// identical within tolerance) plus human attribution notes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactDiff {
    /// `DIFF0003`/`DIFF0004`/`DIFF0005` findings, document order.
    pub diagnostics: Vec<Diagnostic>,
    /// Attribution narrative: per-phase deltas, critical-path shift,
    /// counter/histogram movement.
    pub notes: Vec<String>,
}

impl ArtifactDiff {
    /// Whether the two artifacts agree (within the noise threshold).
    pub fn identical(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

fn numbers_match(a: f64, b: f64, rel_tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    if a == b {
        return true;
    }
    (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

/// Generic field-level walk: record every path where the two values
/// disagree beyond the threshold.
fn walk(path: &str, a: &Value, b: &Value, opts: &ArtifactDiffOptions, out: &mut Vec<String>) {
    match (a, b) {
        // Numeric views first so Int-vs-Num and null-vs-NaN compare by
        // value, like the emitters intend.
        (
            Value::Int(_) | Value::Num(_) | Value::Null,
            Value::Int(_) | Value::Num(_) | Value::Null,
        ) => {
            let (xa, xb) = (a.as_f64().unwrap_or(f64::NAN), b.as_f64().unwrap_or(f64::NAN));
            if !numbers_match(xa, xb, opts.rel_tol) {
                out.push(format!("{path}: {} -> {}", brief(a), brief(b)));
            }
        }
        (Value::Obj(fa), Value::Obj(fb)) => {
            let n = fa.len().max(fb.len());
            for i in 0..n {
                match (fa.get(i), fb.get(i)) {
                    (Some((ka, va)), Some((kb, vb))) if ka == kb => {
                        let sub = if path.is_empty() { ka.clone() } else { format!("{path}.{ka}") };
                        walk(&sub, va, vb, opts, out);
                    }
                    (Some((ka, _)), Some((kb, _))) => {
                        out.push(format!("{path}: field order differs ({ka} vs {kb})"));
                        return;
                    }
                    (Some((k, _)), None) => out.push(format!("{path}.{k}: only in A")),
                    (None, Some((k, _))) => out.push(format!("{path}.{k}: only in B")),
                    (None, None) => unreachable!("i < max(len)"),
                }
            }
        }
        (Value::Arr(xa), Value::Arr(xb)) => {
            if xa.len() != xb.len() {
                out.push(format!("{path}: {} elements -> {}", xa.len(), xb.len()));
            }
            for (i, (va, vb)) in xa.iter().zip(xb.iter()).enumerate() {
                walk(&format!("{path}[{i}]"), va, vb, opts, out);
            }
        }
        _ if a == b => {}
        _ => out.push(format!("{path}: {} -> {}", brief(a), brief(b))),
    }
}

/// A scalar as the writer prints it; a container by its size.
fn brief(v: &Value) -> String {
    match v {
        Value::Arr(xs) => format!("[{} elements]", xs.len()),
        Value::Obj(fs) => format!("{{{} fields}}", fs.len()),
        scalar => scalar.pretty(),
    }
}

/// Per-phase time/energy deltas between two audit reports' `phases`
/// arrays, keyed by kind.
fn phase_notes(a: &Value, b: &Value, notes: &mut Vec<String>) {
    let by_kind = |v: &Value| -> BTreeMap<String, (f64, f64)> {
        v.get("phases")
            .and_then(Value::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|p| {
                        Some((
                            p.get("kind")?.as_str()?.to_string(),
                            (
                                p.get("time_s")?.as_f64()?,
                                p.get("energy_j").and_then(Value::as_f64).unwrap_or(f64::NAN),
                            ),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (pa, pb) = (by_kind(a), by_kind(b));
    if pa.is_empty() && pb.is_empty() {
        return;
    }
    let mut kinds: Vec<&String> = pa.keys().chain(pb.keys()).collect();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        match (pa.get(kind), pb.get(kind)) {
            (Some(&(ta, ea)), Some(&(tb, eb))) => {
                if ta != tb || (ea != eb && !(ea.is_nan() && eb.is_nan())) {
                    notes.push(format!(
                        "phase `{kind}`: time {ta} s -> {tb} s ({:+.3} s), \
                         energy {ea} J -> {eb} J ({:+.3} J)",
                        tb - ta,
                        eb - ea
                    ));
                }
            }
            (Some(_), None) => notes.push(format!("phase `{kind}`: only in A")),
            (None, Some(_)) => notes.push(format!("phase `{kind}`: only in B")),
            (None, None) => unreachable!("kind came from a key set"),
        }
    }
}

/// Critical-path shift between two audit reports: which partition paced
/// the run, and how the serial overhead moved.
fn critical_path_notes(a: &Value, b: &Value, notes: &mut Vec<String>) {
    let read = |v: &Value| -> Option<(u64, u64, f64)> {
        let cp = v.get("critical_path")?;
        Some((
            cp.get("sim_limited_syncs")?.as_u64()?,
            cp.get("analysis_limited_syncs")?.as_u64()?,
            cp.get("overhead_s")?.as_f64()?,
        ))
    };
    if let (Some((sa, aa, oa)), Some((sb, ab, ob))) = (read(a), read(b)) {
        if sa != sb || aa != ab || oa != ob {
            notes.push(format!(
                "critical path shift: sim-limited {sa} -> {sb} syncs, \
                 analysis-limited {aa} -> {ab} syncs, overhead {oa} s -> {ob} s"
            ));
        }
    }
}

/// Registry counter/histogram movement between two metrics documents.
fn registry_notes(a: &Value, b: &Value, notes: &mut Vec<String>) {
    let counters = |v: &Value| -> BTreeMap<String, u64> {
        v.get("counters")
            .and_then(Value::as_obj)
            .map(|fs| fs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_u64()?))).collect())
            .unwrap_or_default()
    };
    let (ca, cb) = (counters(a), counters(b));
    let mut names: Vec<&String> = ca.keys().chain(cb.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let (xa, xb) = (ca.get(name).copied().unwrap_or(0), cb.get(name).copied().unwrap_or(0));
        if xa != xb {
            notes.push(format!("counter `{name}`: {xa} -> {xb} ({:+})", xb as i128 - xa as i128));
        }
    }
    let histos = |v: &Value| -> BTreeMap<String, (u64, u64, u64, u64)> {
        v.get("histograms")
            .and_then(Value::as_obj)
            .map(|fs| {
                fs.iter()
                    .filter_map(|(k, h)| {
                        Some((
                            k.clone(),
                            (
                                h.get("count")?.as_u64()?,
                                h.get("p50_ns").and_then(Value::as_u64).unwrap_or(0),
                                h.get("p95_ns").and_then(Value::as_u64).unwrap_or(0),
                                h.get("p99_ns").and_then(Value::as_u64).unwrap_or(0),
                            ),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (ha, hb) = (histos(a), histos(b));
    let mut names: Vec<&String> = ha.keys().chain(hb.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        match (ha.get(name), hb.get(name)) {
            (Some(&(na, p50a, p95a, p99a)), Some(&(nb, p50b, p95b, p99b))) => {
                if (na, p50a, p95a, p99a) != (nb, p50b, p95b, p99b) {
                    notes.push(format!(
                        "histogram `{name}`: count {na} -> {nb}, \
                         p50 {p50a} -> {p50b} ns, p95 {p95a} -> {p95b} ns, p99 {p99a} -> {p99b} ns"
                    ));
                }
            }
            (Some(_), None) => notes.push(format!("histogram `{name}`: only in A")),
            (None, Some(_)) => notes.push(format!("histogram `{name}`: only in B")),
            (None, None) => unreachable!("name came from a key set"),
        }
    }
}

/// Compare two persisted JSON artifacts (run documents or wall-clock
/// profiles). Byte-equal documents short circuit; otherwise both must
/// parse (`DIFF0004`) and carry matching `schema_version`s (`DIFF0005`)
/// before the field walk attributes the deltas (`DIFF0003`, with
/// per-phase and critical-path notes from the `report` section and
/// registry notes from the `metrics` section).
pub fn diff_artifacts(a_text: &str, b_text: &str, opts: &ArtifactDiffOptions) -> ArtifactDiff {
    let mut out = ArtifactDiff::default();
    if a_text == b_text {
        return out;
    }
    let va = match json::parse(a_text) {
        Ok(v) => v,
        Err(e) => {
            out.diagnostics.push(Diagnostic::new(diag::DIFF_PARSE, format!("artifact A: {e}")));
            return out;
        }
    };
    let vb = match json::parse(b_text) {
        Ok(v) => v,
        Err(e) => {
            out.diagnostics.push(Diagnostic::new(diag::DIFF_PARSE, format!("artifact B: {e}")));
            return out;
        }
    };
    let sv = |v: &Value| v.get("schema_version").and_then(Value::as_u64);
    match (sv(&va), sv(&vb)) {
        (a, b) if a == b => {}
        (a, b) => {
            let show = |x: Option<u64>| x.map_or("absent".to_string(), |v| v.to_string());
            out.diagnostics.push(Diagnostic::new(
                diag::DIFF_SCHEMA,
                format!("schema_version {} vs {}: refusing to attribute deltas", show(a), show(b)),
            ));
            return out;
        }
    }

    let mut fields = Vec::new();
    walk("", &va, &vb, opts, &mut fields);
    if fields.is_empty() {
        // Bytes differ but every field agrees within tolerance: noise.
        return out;
    }
    let shown = fields.len().min(opts.max_findings);
    for f in &fields[..shown] {
        out.diagnostics.push(Diagnostic::new(diag::DIFF_ARTIFACT, f.clone()));
    }
    if fields.len() > shown {
        out.notes.push(format!("... and {} more field deltas", fields.len() - shown));
    }
    let section = |key| (va.get(key).unwrap_or(&Value::Null), vb.get(key).unwrap_or(&Value::Null));
    let (ra, rb) = section("report");
    phase_notes(ra, rb, &mut out.notes);
    critical_path_notes(ra, rb, &mut out.notes);
    let (ma, mb) = section("metrics");
    registry_notes(ma, mb, &mut out.notes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const L1: &str = "{\"t\":0,\"ev\":\"sync_start\",\"sync\":1}";
    const L2: &str =
        "{\"t\":5,\"ev\":\"phase\",\"node\":3,\"kind\":\"force\",\"start_ns\":0,\"end_ns\":5}";
    const L3: &str = "{\"t\":9,\"ev\":\"sync_end\",\"sync\":1,\"overhead_s\":0.25}";

    fn diff_strs(a: &str, b: &str) -> Option<TraceDivergence> {
        diff_readers(a.as_bytes(), b.as_bytes(), DEFAULT_CONTEXT).expect("no io error")
    }

    #[test]
    fn identical_traces_produce_no_divergence() {
        let t = format!("{L1}\n{L2}\n{L3}\n");
        assert_eq!(diff_strs(&t, &t), None);
        assert_eq!(diff_strs("", ""), None);
    }

    #[test]
    fn flipped_value_is_caught_at_the_exact_line_and_field() {
        let a = format!("{L1}\n{L2}\n{L3}\n");
        let b = format!("{L1}\n{L2}\n{}\n", L3.replace("0.25", "0.5"));
        let d = diff_strs(&a, &b).expect("diverges");
        assert_eq!(d.line, 3);
        assert_eq!(d.aspect, Aspect::Value);
        assert_eq!(d.field.as_deref(), Some("overhead_s"));
        let diag = d.diagnostic();
        assert_eq!(diag.code_str(), "DIFF0001");
        assert!(diag.detail.contains("line 3"), "{}", diag.detail);
        assert!(diag.detail.contains("overhead_s"));
    }

    #[test]
    fn flipped_timestamp_and_kind_are_attributed() {
        let a = format!("{L1}\n{L2}\n");
        let bt = format!("{L1}\n{}\n", L2.replace("\"t\":5", "\"t\":6"));
        let d = diff_strs(&a, &bt).expect("diverges");
        assert_eq!(d.aspect, Aspect::Time);
        assert_eq!(d.field.as_deref(), Some("t"));

        let bk = format!("{L1}\n{}\n", L2.replace("\"ev\":\"phase\"", "\"ev\":\"wait\""));
        let d = diff_strs(&a, &bk).expect("diverges");
        assert_eq!(d.aspect, Aspect::EventKind);
        assert_eq!(d.field.as_deref(), Some("ev"));
    }

    #[test]
    fn dropped_line_is_caught_where_the_streams_skew() {
        let a = format!("{L1}\n{L2}\n{L3}\n");
        let b = format!("{L1}\n{L3}\n");
        let d = diff_strs(&a, &b).expect("diverges");
        // The drop shows up at line 2: A has the phase, B already has the
        // sync_end.
        assert_eq!(d.line, 2);
        assert_eq!(d.diagnostic().code_str(), "DIFF0001");
    }

    #[test]
    fn truncated_trace_gets_its_own_code() {
        let a = format!("{L1}\n{L2}\n");
        let b = format!("{L1}\n");
        let d = diff_strs(&a, &b).expect("diverges");
        assert_eq!(d.line, 2);
        assert_eq!(d.aspect, Aspect::Truncation);
        let diag = d.diagnostic();
        assert_eq!(diag.code_str(), "DIFF0002");
        assert!(diag.detail.contains("trace B ends"));
    }

    #[test]
    fn reordered_event_is_caught_at_the_swap_point() {
        let a = format!("{L1}\n{L2}\n{L3}\n");
        let b = format!("{L2}\n{L1}\n{L3}\n");
        let d = diff_strs(&a, &b).expect("diverges");
        assert_eq!(d.line, 1);
        assert_eq!(d.diagnostic().code_str(), "DIFF0001");
    }

    #[test]
    fn context_windows_are_per_entity_and_bounded() {
        let mut a = String::new();
        let mut b = String::new();
        for i in 0..20 {
            let line = format!(
                "{{\"t\":{i},\"ev\":\"phase\",\"node\":{},\"kind\":\"force\",\"start_ns\":0,\"end_ns\":1}}",
                i % 2
            );
            a.push_str(&line);
            a.push('\n');
            b.push_str(&line);
            b.push('\n');
        }
        a.push_str("{\"t\":20,\"ev\":\"node_energy\",\"node\":0,\"energy_j\":1}\n");
        b.push_str("{\"t\":20,\"ev\":\"node_energy\",\"node\":0,\"energy_j\":2}\n");
        let d = diff_readers(a.as_bytes(), b.as_bytes(), 3).expect("io ok").expect("diverges");
        assert_eq!(d.line, 21);
        assert_eq!(d.field.as_deref(), Some("energy_j"));
        // Windows: the global one plus node 0's, each capped at K=3.
        let labels: Vec<&str> = d.context.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["(any)", "node 0"]);
        for (_, rows) in &d.context {
            assert_eq!(rows.len(), 3);
        }
        // node 0's window holds only node-0 lines (even timestamps).
        let node0 = &d.context.iter().find(|(l, _)| l == "node 0").unwrap().1;
        assert_eq!(node0.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![15, 17, 19]);
        let rendered = d.render("A", "B");
        assert!(rendered.contains("error[DIFF0001]"));
        assert!(rendered.contains("node 0:"));
    }

    #[test]
    fn artifact_differ_fast_paths_identical_documents() {
        let doc = "{\"schema_version\":1,\"x\":1.5}";
        let d = diff_artifacts(doc, doc, &ArtifactDiffOptions::default());
        assert!(d.identical());
    }

    #[test]
    fn artifact_differ_names_the_moved_field() {
        let a = "{\"schema_version\":2,\"report\":{\"critical_path\":{\"sim_limited_syncs\":10,\"analysis_limited_syncs\":5,\"overhead_s\":1.5}}}";
        let b = "{\"schema_version\":2,\"report\":{\"critical_path\":{\"sim_limited_syncs\":8,\"analysis_limited_syncs\":7,\"overhead_s\":1.5}}}";
        let d = diff_artifacts(a, b, &ArtifactDiffOptions::default());
        assert!(!d.identical());
        assert_eq!(d.diagnostics[0].code_str(), "DIFF0003");
        assert!(d.diagnostics[0].detail.contains("report.critical_path.sim_limited_syncs"));
        assert!(d.notes.iter().any(|n| n.contains("sim-limited 10 -> 8 syncs")), "{:?}", d.notes);
    }

    #[test]
    fn artifact_differ_rejects_schema_mismatch() {
        let a = "{\"schema_version\":1,\"x\":1}";
        let b = "{\"schema_version\":2,\"x\":1}";
        let d = diff_artifacts(a, b, &ArtifactDiffOptions::default());
        assert_eq!(d.diagnostics.len(), 1);
        assert_eq!(d.diagnostics[0].code_str(), "DIFF0005");
        // Absent vs present is a schema mismatch too.
        let c = "{\"x\":1}";
        let d = diff_artifacts(a, c, &ArtifactDiffOptions::default());
        assert_eq!(d.diagnostics[0].code_str(), "DIFF0005");
    }

    #[test]
    fn artifact_differ_reports_malformed_documents() {
        let d = diff_artifacts("{", "{}", &ArtifactDiffOptions::default());
        assert_eq!(d.diagnostics[0].code_str(), "DIFF0004");
    }

    #[test]
    fn artifact_differ_applies_noise_threshold() {
        let a = "{\"schema_version\":1,\"v\":100.0}";
        let b = "{\"schema_version\":1,\"v\":100.5}";
        assert!(!diff_artifacts(a, b, &ArtifactDiffOptions::default()).identical());
        let tol = ArtifactDiffOptions { rel_tol: 0.01, ..Default::default() };
        assert!(diff_artifacts(a, b, &tol).identical());
    }

    #[test]
    fn artifact_differ_attributes_phases_and_counters() {
        let a = "{\"schema_version\":2,\"report\":{\"phases\":[{\"kind\":\"force\",\"spans\":4,\"time_s\":2.0,\"energy_j\":220.0}]},\"metrics\":{\"counters\":{\"events\":100}}}";
        let b = "{\"schema_version\":2,\"report\":{\"phases\":[{\"kind\":\"force\",\"spans\":4,\"time_s\":2.5,\"energy_j\":275.0}]},\"metrics\":{\"counters\":{\"events\":120}}}";
        let d = diff_artifacts(a, b, &ArtifactDiffOptions::default());
        assert!(d.notes.iter().any(|n| n.contains("phase `force`") && n.contains("+0.500 s")));
        assert!(d.notes.iter().any(|n| n.contains("counter `events`: 100 -> 120 (+20)")));
    }
}
