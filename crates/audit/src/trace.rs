//! The trace container: a parsed (or tapped) sequence of events.

use obs::{EventError, TraceEvent};

/// One run's trace, in buffer order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The events, in the order they were recorded.
    pub events: Vec<TraceEvent>,
}

/// A parse failure annotated with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// What went wrong on that line.
    pub error: EventError,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Parse a JSONL trace document (one event per line; empty lines are
    /// an error — the emitter never writes them).
    pub fn parse_jsonl(input: &str) -> Result<Trace, TraceError> {
        let mut events = Vec::with_capacity(input.len() / 80);
        for (i, line) in input.lines().enumerate() {
            match TraceEvent::parse_line(line) {
                Ok(ev) => events.push(ev),
                Err(error) => return Err(TraceError { line: i + 1, error }),
            }
        }
        Ok(Trace { events })
    }

    /// Build a trace from live in-memory events (the tap path), each in
    /// its wire form so the tap equals a parse of the serialized trace.
    pub fn from_events(events: &[TraceEvent]) -> Trace {
        Trace { events: events.iter().map(|e| e.wire_form().into_owned()).collect() }
    }

    /// Snapshot a live tracer's buffer.
    pub fn from_tracer(tracer: &obs::Tracer) -> Trace {
        Trace::from_events(&tracer.events())
    }

    /// Serialize back to the exact JSONL document the emitter writes
    /// (trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        obs::to_jsonl(&self.events)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips() {
        let doc = "{\"t\":0,\"ev\":\"sync_start\",\"sync\":1}\n{\"t\":5,\"ev\":\"sync_end\",\"sync\":1,\"overhead_s\":0.25}\n";
        let trace = Trace::parse_jsonl(doc).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.to_jsonl(), doc);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "{\"t\":0,\"ev\":\"sync_start\",\"sync\":1}\nnot json\n";
        let e = Trace::parse_jsonl(doc).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn from_tracer_taps_the_buffer() {
        let tracer = obs::Tracer::enabled();
        tracer.set_now(des::SimTime::from_nanos(3));
        tracer.emit(obs::Event::SyncStart { sync: 1 });
        let trace = Trace::from_tracer(&tracer);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.to_jsonl(), tracer.to_jsonl());
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let t = Trace::parse_jsonl("").unwrap();
        assert!(t.is_empty());
    }
}
