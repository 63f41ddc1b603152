//! What the integration tests share: how a run is paired with its static
//! baseline, and how a run is audited — one streaming auditor, fed a
//! tracer's events or a serialized trace's lines.

// Each test file that includes this module uses part of it.
#![allow(dead_code)]

use audit::{StreamAuditor, StreamOutcome};
use insitu::{improvement_pct, run_job, JobConfig};
use obs::{EventError, TraceEvent};

/// Percentage improvement of `cfg`'s run over its paired static baseline
/// (`JobConfig::static_baseline`, §VII-A); positive is faster than static.
pub fn improvement_over_baseline(cfg: &JobConfig) -> f64 {
    let base = run_job(cfg.static_baseline()).expect("static is a known controller");
    let run = run_job(cfg.clone()).expect("known controller");
    improvement_pct(base.total_time_s, run.total_time_s)
}

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
