//! Namespaced diagnostic codes for audit and run-explainer findings.
//!
//! Every finding the audit battery or the run explainer can raise carries
//! a stable code (`AUDIT0001`…, `DIFF0001`…), a short check name, and a
//! severity. Codes are append-only: a code never changes meaning and is
//! never reused, so scripts can grep a report for `AUDIT0004` across
//! releases. `BENCH0001`–`BENCH0005` belonged to a wall-clock bench gate
//! that no longer exists; those numbers stay retired and are never
//! reused. The human renderer follows the compiler convention
//! (`error[AUDIT0004] budget: …`); the JSON renderer emits
//! `code`/`severity`/`check`/`detail` fields.

/// How bad a diagnostic is. Errors fail the audit (or the gate); warnings
/// are advisory and never flip an exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Severity {
    /// A broken invariant or exceeded bound.
    Error,
    /// Advisory: worth a look, not a failure.
    Warning,
}

impl Severity {
    /// Stable lowercase tag (`"error"` / `"warning"`).
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A stable, namespaced diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagCode {
    /// The namespaced code, e.g. `"AUDIT0004"`.
    pub code: &'static str,
    /// Short check name, e.g. `"budget"`.
    pub check: &'static str,
    /// Default severity of findings under this code.
    pub(crate) severity: Severity,
}

const fn audit(code: &'static str, check: &'static str) -> DiagCode {
    DiagCode { code, check, severity: Severity::Error }
}

const fn audit_warn(code: &'static str, check: &'static str) -> DiagCode {
    DiagCode { code, check, severity: Severity::Warning }
}

/// `AUDIT0001` — the shared sim-time clock ran backwards.
pub(crate) const CLOCK: DiagCode = audit("AUDIT0001", "clock");
/// `AUDIT0002` — synchronization intervals misnumbered or badly nested.
pub(crate) const SYNC: DiagCode = audit("AUDIT0002", "sync");
/// `AUDIT0003` — per-node spans overlap or escape their interval.
pub(crate) const SPANS: DiagCode = audit("AUDIT0003", "spans");
/// `AUDIT0004` — a decision allocated more power than the budget.
pub(crate) const BUDGET: DiagCode = audit("AUDIT0004", "budget");
/// `AUDIT0005` — a RAPL grant left the `[δ_min, δ_max]` range.
pub(crate) const CAP_RANGE: DiagCode = audit("AUDIT0005", "cap_range");
/// `AUDIT0006` — a cap was enforced faster than the actuation latency.
pub(crate) const ACTUATION: DiagCode = audit("AUDIT0006", "actuation");
/// `AUDIT0007` — interval/node energies do not tile the run total.
pub(crate) const ENERGY: DiagCode = audit("AUDIT0007", "energy");
/// `AUDIT0008` — a machine epoch division leaked or overdrew envelope.
pub(crate) const ENVELOPE: DiagCode = audit("AUDIT0008", "envelope");
/// `AUDIT0009` — an injected fault lacks its graceful-degradation pair.
pub(crate) const FAULTS: DiagCode = audit("AUDIT0009", "faults");
/// `AUDIT0010` — a fleet invariant broke: job lost or double-run, retry
/// schedule out of contract, or fleet-envelope conservation violated.
pub(crate) const FLEET: DiagCode = audit("AUDIT0010", "fleet");

/// `AUDIT0011` — a machine-scheduler job lifecycle broke: started without
/// arriving, completed without running, killed or completed after a
/// terminal state, or started twice.
pub(crate) const LIFECYCLE: DiagCode = audit("AUDIT0011", "lifecycle");
/// `AUDIT0012` — advisory: the run opened intervals but never reached its
/// `run_end` epilogue (a halt — legal under partition death, worth a
/// look otherwise).
pub(crate) const HALT: DiagCode = audit_warn("AUDIT0012", "halt");
/// `AUDIT0013` — a streamed trace line failed to parse (the streaming
/// audit stops at the first malformed line, like the batch loader).
pub const STREAM: DiagCode = audit("AUDIT0013", "stream");

/// `DIFF0001` — two traces diverge: the first differing event, with the
/// line number, the field that moved, and whether it was the timestamp,
/// the event kind, or a payload value.
pub(crate) const DIFF_TRACE: DiagCode = audit("DIFF0001", "trace");
/// `DIFF0002` — one trace is a strict prefix of the other (a line was
/// dropped, or a run ended early).
pub(crate) const DIFF_TRUNCATED: DiagCode = audit("DIFF0002", "truncated");
/// `DIFF0003` — two report/metrics/health artifacts differ beyond the
/// noise threshold: names the path of the first offending field.
pub(crate) const DIFF_ARTIFACT: DiagCode = audit("DIFF0003", "artifact");
/// `DIFF0004` — an artifact handed to the differ is unreadable or not
/// comparable (malformed JSON, mismatched document shapes).
pub(crate) const DIFF_PARSE: DiagCode = audit("DIFF0004", "artifact_parse");
/// `DIFF0005` — the two artifacts carry different `schema_version`s; the
/// differ refuses to attribute deltas across schema changes.
pub(crate) const DIFF_SCHEMA: DiagCode = audit("DIFF0005", "schema");

/// One finding: a code plus the specifics of where and how it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The namespaced code (carries check name and severity).
    pub code: DiagCode,
    /// What exactly went wrong, with enough context to locate it.
    pub detail: String,
}

/// The audit battery's historical name for a finding.
pub type Violation = Diagnostic;

impl Diagnostic {
    /// A finding under `code`.
    pub fn new(code: DiagCode, detail: impl Into<String>) -> Self {
        Diagnostic { code, detail: detail.into() }
    }

    /// The short check name (`"clock"`, `"budget"`, …).
    pub fn check(&self) -> &'static str {
        self.code.check
    }

    /// The namespaced code string (`"AUDIT0001"`, …).
    pub fn code_str(&self) -> &'static str {
        self.code.code
    }

    /// The finding's severity.
    pub(crate) fn severity(&self) -> Severity {
        self.code.severity
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.code.severity.tag(),
            self.code.code,
            self.code.check,
            self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_renderer_is_compiler_style() {
        let d = Diagnostic::new(BUDGET, "allocation 2000 W exceeds budget 1760 W");
        assert_eq!(
            d.to_string(),
            "error[AUDIT0004] budget: allocation 2000 W exceeds budget 1760 W"
        );
    }

    #[test]
    fn accessors_expose_code_check_severity() {
        let d = Diagnostic::new(FLEET, "job 3 lost");
        assert_eq!(d.code_str(), "AUDIT0010");
        assert_eq!(d.check(), "fleet");
        assert_eq!(d.severity(), Severity::Error);
        assert_eq!(d.severity().tag(), "error");
        assert_eq!(Severity::Warning.tag(), "warning");
    }

    #[test]
    fn halt_is_advisory() {
        let d = Diagnostic::new(HALT, "run halted with interval 7 open");
        assert_eq!(d.severity(), Severity::Warning);
        assert_eq!(d.to_string(), "warning[AUDIT0012] halt: run halted with interval 7 open");
    }

    #[test]
    fn codes_are_unique() {
        let all = [
            CLOCK,
            SYNC,
            SPANS,
            BUDGET,
            CAP_RANGE,
            ACTUATION,
            ENERGY,
            ENVELOPE,
            FAULTS,
            FLEET,
            LIFECYCLE,
            HALT,
            STREAM,
            DIFF_TRACE,
            DIFF_TRUNCATED,
            DIFF_ARTIFACT,
            DIFF_PARSE,
            DIFF_SCHEMA,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.code, b.code, "duplicate code {}", a.code);
                assert_ne!(a.check, b.check, "duplicate check {}", a.check);
            }
        }
    }
}
