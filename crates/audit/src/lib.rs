//! # audit — the trace audit engine
//!
//! Consumes the event stream the `obs` layer records — live through the
//! [`obs::EventSubscriber`] seam, from a tapped [`obs::Tracer`] buffer,
//! or parsed back from a JSONL file — and answers two questions:
//!
//! 1. **Did the run obey its own physics?** — the incremental checker
//!    battery ([`StreamChecker`]) runs structural and physical checks one event at a time, carrying
//!    O(active spans + nodes) state: clock monotonicity, interval
//!    nesting, per-node span ordering, budget conservation at every
//!    allocation, RAPL clamp/actuation consistency, energy identities,
//!    machine-envelope conservation, fault → graceful-degradation
//!    pairing, the fleet federation contract (no job lost or double-run,
//!    retry/backoff in bounds, fleet-envelope conservation), the machine
//!    job-lifecycle protocol, and a halted-run advisory. Every finding
//!    carries a namespaced diagnostic code ([`diag`]):
//!    `AUDIT0001`…`AUDIT0013`.
//! 2. **Where did the time and energy go?** — [`StreamAuditor`] folds the
//!    same stream into [`AuditReport`] (per-phase and per-partition
//!    attribution, a per-interval straggler breakdown, a critical-path
//!    decomposition, the cap-actuation latency distribution), a
//!    [`Registry`] of counters/gauges/deterministic histograms, and
//!    per-interval [`RunHealth`] snapshots — in constant memory, interval
//!    working sets discarded as each `sync_end` closes them. The three
//!    persist as the sections of one versioned run document,
//!    `run_<bin>.json` ([`StreamOutcome::to_json`]).
//! 3. **Why did two runs differ?** — the run explainer ([`diff`]):
//!    [`TraceDiffer`] streams two JSONL traces to the first divergent
//!    event (constant memory) and renders a `DIFF0001`/`DIFF0002`
//!    diagnostic with per-node causal context; [`diff_artifacts`]
//!    attributes report/metrics deltas to phases, the critical path, and
//!    registry counters (`DIFF0003`–`DIFF0005`).
//!
//! There is one event type, [`obs::TraceEvent`], whether an event arrives
//! live or from a file: the schema, its writer and its strict reader
//! ([`obs::TraceEvent::parse_line`] — exact field order, nothing missing,
//! nothing extra, so a parsed trace re-serializes byte-for-byte) are all
//! generated from the one table in `obs`. A live event is audited in its
//! wire form ([`obs::TraceEvent::wire_form`]), which is what makes the
//! live, tapped and replayed audits of one run byte-identical. Everything
//! is hand-rolled on top of [`json`] (re-exported from `obs`, where the
//! reader lives beside the schema): every document is a [`json::Value`]
//! printed by its one writer, and the workspace carries no registry
//! dependencies.

#![warn(missing_docs)]

pub mod diag;
pub mod diff;
pub mod invariants;
pub mod metrics;
pub mod registry;
pub mod stream;

pub use diag::{DiagCode, Diagnostic, Severity, Violation};
pub use diff::{diff_artifacts, diff_readers, ArtifactDiff, ArtifactDiffOptions, TraceDiffer};
pub use invariants::StreamChecker;
pub use metrics::AuditReport;
pub use obs::json;
pub use registry::{Counter, ExactSum, Gauge, Histogram, Registry};
pub use stream::{RunHealth, StreamAuditor, StreamOutcome, RUN_SCHEMA_VERSION};

/// Audit `events` in one pass: how the unit tests run the engine.
#[cfg(test)]
pub(crate) fn audited(events: &[obs::TraceEvent]) -> StreamOutcome {
    let mut auditor = StreamAuditor::new();
    events.iter().for_each(|e| auditor.feed(e));
    auditor.finish()
}
