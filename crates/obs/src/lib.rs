//! Deterministic sim-time observability for the PoLiMER stack.
//!
//! Everything in this crate is keyed on **simulated time**
//! ([`des::SimTime`]) rather than wall-clock, so a trace is a pure
//! function of `(config, seed)`: two same-seed runs — at any
//! `POLIMER_THREADS` setting — serialize byte-identical JSONL, the same
//! reproducibility contract the rest of the workspace gives for results.
//!
//! The pieces:
//!
//! - [`Tracer`] — a cloneable sink handle threaded through the stack.
//!   Disabled (the default) it is a `None` branch: no allocation, no
//!   locking, no formatting. Enabled it records typed [`Event`]s — one
//!   lock per event (or per batch) and a `Vec` push when buffering.
//!   [`Tracer::streaming`] skips the buffer entirely: events flow to
//!   attached [`EventSubscriber`]s and are dropped, giving
//!   constant-memory observability for audited runs.
//! - [`EventSubscriber`] — the subscriber seam: consumers attached via
//!   [`Tracer::attach`] see every event in deterministic sim-time record
//!   order without the trace ever being collected into a `Vec`.
//! - [`Event`] / [`TraceEvent`] — the typed schema covering runtime sync
//!   epochs, node phase/wait spans, RAPL cap actuation, power-manager
//!   measurement and exchange, SeeSAw decision internals, and fault
//!   injection/recovery. One table generates the enum, its JSONL writer
//!   and its strict reader ([`TraceEvent::parse_line`], one pass over
//!   the line on the [`json`] field cursor), so there is one event type
//!   whether an event is emitted or read back from a file.
//! - [`to_jsonl`] / [`chrome_trace`] — exporters: a JSONL event log and a
//!   Chrome-trace (Perfetto) timeline with per-node cap/power counter
//!   tracks and phase activity lanes.
//! - [`json`] — the workspace's one JSON value: its strict parser, and
//!   the one writer every persisted document goes through
//!   ([`json::Value::pretty`]).
//! - [`Reporter`] — the quiet-aware progress printer the experiment bins
//!   share instead of ad-hoc `println!` lines.
//!
//! Activation: the bins accept `--trace <path>` (JSONL) and
//! `--trace-perfetto <path>`, or the `SEESAW_TRACE` /
//! `SEESAW_TRACE_PERFETTO` environment variables.
#![warn(missing_docs)]

mod event;
pub mod hist;
pub mod json;
mod perfetto;
pub mod profile;
mod report;
mod sink;

pub use event::{to_jsonl, DecisionInfo, Event, EventError, Tag, TraceEvent};
pub use hist::{ExactSum, Histogram, HISTOGRAM_BUCKETS};
pub use perfetto::chrome_trace;
pub use report::Reporter;
pub use sink::{EventSubscriber, Tracer};
