//! How the integration tests audit a run: one streaming auditor, fed a
//! tracer's events or a serialized trace's lines.

// Each test file that includes this module uses part of it.
#![allow(dead_code)]

use audit::{StreamAuditor, StreamOutcome};
use obs::{EventError, TraceEvent};

/// Audit events already in hand — a tracer's buffer after the run.
pub fn audit_events(events: &[TraceEvent]) -> StreamOutcome {
    let mut auditor = StreamAuditor::new();
    events.iter().for_each(|e| auditor.feed(e));
    auditor.finish()
}

/// Audit a JSONL trace line by line, as `audit_trace` replays a file; the
/// first line the strict reader refuses is the error, with its 1-based
/// number.
pub fn audit_jsonl(jsonl: &str) -> Result<StreamOutcome, (usize, EventError)> {
    let mut auditor = StreamAuditor::new();
    for (i, line) in jsonl.lines().enumerate() {
        auditor.feed_line(line).map_err(|e| (i + 1, e))?;
    }
    Ok(auditor.finish())
}
