//! In-memory spans around every call the harness makes into a layer.
//!
//! The recorder is thread-local: the harness, and the three seam types it
//! plants inside the program (`crate::seams`), all run on the thread that
//! drives the op, so a span's parent is simply the span open when it
//! starts. Spans are kept in memory and folded into per-name totals when
//! the traced run ends; nothing is written while measuring.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The closed set of span names: one per harness-visible call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// One whole traced op; its self time is what no span below covers.
    Op,
    InsituNew,
    InsituStepSync,
    InsituCompactHistory,
    InsituFinish,
    CoreOnSync,
    MdsimStepWork,
    MdsimWorkloadNew,
    SchedNew,
    SchedStepEpoch,
    SchedFinish,
    FleetNew,
    FleetStepEpoch,
    FleetFinish,
    FleetStreamSeeded,
    FaultsPlanGenerate,
    ObsToJsonl,
    AuditOnEvent,
    AuditFeedLines,
    AuditFinish,
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    /// Index of the enclosing span, `NO_PARENT` for a root.
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    current: u32,
    op: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        current: NO_PARENT,
        op: 0,
    });
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    REC.with_borrow_mut(|r| {
        r.on = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.current = NO_PARENT;
        r.op = 0;
    });
}

/// Stop recording and hand back every span, in start order.
pub fn take() -> Vec<Span> {
    REC.with_borrow_mut(|r| {
        r.on = false;
        r.current = NO_PARENT;
        std::mem::take(&mut r.spans)
    })
}

/// Tag the spans that follow with op id `op`.
pub fn set_op(op: u32) {
    REC.with_borrow_mut(|r| r.op = op);
}

/// Run `f` inside a span named `name` (a plain call when recording is off).
pub fn scope<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let idx = REC.with_borrow_mut(|r| {
        if !r.on {
            return NO_PARENT;
        }
        let idx = r.spans.len() as u32;
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span { name, parent: r.current, op: r.op, start_ns: now, end_ns: now });
        r.current = idx;
        idx
    });
    let out = f();
    if idx != NO_PARENT {
        REC.with_borrow_mut(|r| {
            // `take()` inside a span leaves nothing to close.
            if let Some(s) = r.spans.get_mut(idx as usize) {
                s.end_ns = r.epoch.elapsed().as_nanos() as u64;
                r.current = s.parent;
            }
        });
    }
    out
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    /// Distinct ops the span appeared in.
    pub ops: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus their direct children's durations.
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration, nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Mean calls per op that made any (0 when the span never ran).
    pub fn calls_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.calls as f64 / self.ops as f64
        }
    }
}

/// Fold spans into per-name call counts, total time and self time. Spans
/// arrive in start order, so one op's spans are contiguous per name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<Name, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<Name, Agg> = BTreeMap::new();
    let mut last_op: BTreeMap<Name, u32> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let a = out.entry(s.name).or_default();
        if last_op.insert(s.name, s.op) != Some(s.op) {
            a.ops += 1;
        }
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, op: 0, start_ns, end_ns }
    }

    fn in_op(op: u32, mut s: Span) -> Span {
        s.op = op;
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ⊃ step_sync [10,60] ⊃ {step_work [20,30], on_sync [40,45]},
        // and a sibling finish [70,90] directly under op.
        let spans = [
            span(Name::Op, NO_PARENT, 0, 100),
            span(Name::InsituStepSync, 0, 10, 60),
            span(Name::MdsimStepWork, 1, 20, 30),
            span(Name::CoreOnSync, 1, 40, 45),
            span(Name::InsituFinish, 0, 70, 90),
        ];
        let agg = aggregate(&spans);
        // op: 100 − (50 + 20); the grandchildren are not subtracted twice.
        assert_eq!(agg[&Name::Op], Agg { calls: 1, ops: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(agg[&Name::InsituStepSync], Agg { calls: 1, ops: 1, total_ns: 50, self_ns: 35 });
        assert_eq!(agg[&Name::MdsimStepWork], Agg { calls: 1, ops: 1, total_ns: 10, self_ns: 10 });
        assert_eq!(agg[&Name::InsituFinish], Agg { calls: 1, ops: 1, total_ns: 20, self_ns: 20 });
        let self_sum: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, 100, "self times tile the root span");
    }

    #[test]
    fn siblings_of_one_name_accumulate() {
        let spans = [
            span(Name::Op, NO_PARENT, 0, 50),
            span(Name::InsituStepSync, 0, 0, 10),
            span(Name::InsituStepSync, 0, 10, 30),
            in_op(1, span(Name::Op, NO_PARENT, 50, 60)),
            in_op(2, span(Name::Op, NO_PARENT, 60, 100)),
            in_op(2, span(Name::InsituStepSync, 4, 60, 90)),
        ];
        let agg = aggregate(&spans);
        let step = agg[&Name::InsituStepSync];
        assert_eq!(step, Agg { calls: 3, ops: 2, total_ns: 60, self_ns: 60 });
        assert_eq!(step.mean_ns(), 20.0);
        // Op 1 made no such call and does not dilute the per-op count.
        assert_eq!(step.calls_per_op(), 1.5);
        assert_eq!(agg[&Name::Op], Agg { calls: 3, ops: 3, total_ns: 100, self_ns: 40 });
        assert_eq!(Agg::default().mean_ns(), 0.0);
        assert_eq!(Agg::default().calls_per_op(), 0.0);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        start();
        set_op(7);
        let v = scope(Name::Op, || {
            scope(Name::InsituNew, || ());
            scope(Name::InsituStepSync, || scope(Name::CoreOnSync, || 42))
        });
        assert_eq!(v, 42);
        let spans = take();
        let shape: Vec<(Name, u32, u32)> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                (Name::Op, NO_PARENT, 7),
                (Name::InsituNew, 0, 7),
                (Name::InsituStepSync, 0, 7),
                (Name::CoreOnSync, 2, 7),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Off again: scope is a plain call and records nothing.
        scope(Name::Op, || ());
        assert!(take().is_empty());
    }
}
