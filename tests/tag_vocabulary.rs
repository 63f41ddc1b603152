//! The strict reader resolves a tag read from a file against one list of
//! known spellings in `obs` (`event::VOCABULARY`) and borrows from it, so
//! replaying a trace allocates nothing per tag. `obs` sits below every
//! emitting crate and cannot name their enums; this test can. It walks
//! every variant of the four tag-bearing enums plus the two
//! `controller_hold` reasons, so a new emitter spelling that is missing
//! from the list fails here instead of silently costing an allocation per
//! event. (An unlisted tag still parses, to an equal owned `Tag` — the
//! list is a speed property only.)

use des::SimTime;
use faults::{FaultKind as F, RecoveryKind as R};
use obs::{Event, Tag, TraceEvent};
use seesaw::Role;
use std::borrow::Cow;
use std::iter::successors;
use theta_sim::PhaseKind as P;

// One arm per variant, each naming the next: the matches are exhaustive,
// so a variant added to an enum cannot compile without joining its chain.

fn next_role(k: Option<Role>) -> Option<Role> {
    match k {
        None => Some(Role::Simulation),
        Some(Role::Simulation) => Some(Role::Analysis),
        Some(Role::Analysis) => None,
    }
}

fn next_phase(k: Option<P>) -> Option<P> {
    match k {
        None => Some(P::Integrate),
        Some(P::Integrate) => Some(P::Force),
        Some(P::Force) => Some(P::NeighborRebuild),
        Some(P::NeighborRebuild) => Some(P::SyncExchange),
        Some(P::SyncExchange) => Some(P::ThermoIo),
        Some(P::ThermoIo) => Some(P::AnalysisRdf),
        Some(P::AnalysisRdf) => Some(P::AnalysisVacf),
        Some(P::AnalysisVacf) => Some(P::AnalysisMsd),
        Some(P::AnalysisMsd) => Some(P::AnalysisMsd1d),
        Some(P::AnalysisMsd1d) => Some(P::AnalysisMsd2d),
        Some(P::AnalysisMsd2d) => Some(P::Wait),
        Some(P::Wait) => None,
    }
}

fn next_fault(k: Option<F>) -> Option<F> {
    match k {
        None => Some(F::NodeCrash),
        Some(F::NodeCrash) => Some(F::Straggler { factor: 3.0 }),
        Some(F::Straggler { .. }) => Some(F::RaplStuck),
        Some(F::RaplStuck) => Some(F::RaplDelayed { extra_s: 0.05 }),
        Some(F::RaplDelayed { .. }) => Some(F::RaplWriteError),
        Some(F::RaplWriteError) => Some(F::SampleNan),
        Some(F::SampleNan) => Some(F::SampleSpike { factor: 50.0 }),
        Some(F::SampleSpike { .. }) => Some(F::SampleDropout),
        Some(F::SampleDropout) => Some(F::MonitorDeath),
        Some(F::MonitorDeath) => Some(F::MessageLoss),
        Some(F::MessageLoss) => Some(F::CollectiveTimeout { failures: 2 }),
        Some(F::CollectiveTimeout { .. }) => None,
    }
}

fn next_recovery(k: Option<R>) -> Option<R> {
    match k {
        None => Some(R::MonitorReelected),
        Some(R::MonitorReelected) => Some(R::NodeExcluded),
        Some(R::NodeExcluded) => Some(R::BudgetRenormalized),
        Some(R::BudgetRenormalized) => Some(R::SampleRejected),
        Some(R::SampleRejected) => Some(R::AllocationHeld),
        Some(R::AllocationHeld) => Some(R::CapWriteRetried),
        Some(R::CapWriteRetried) => Some(R::CollectiveRetried),
        Some(R::CollectiveRetried) => None,
    }
}

/// Write the event, read it back, and hand over the tag the reader built.
fn reread(ev: Event) -> Tag {
    let line = TraceEvent { t: SimTime::ZERO, ev }.to_json_line();
    let back = TraceEvent::parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(back.to_json_line(), line);
    match back.ev {
        Event::Arrival { role: tag, .. }
        | Event::Phase { kind: tag, .. }
        | Event::ControllerHold { reason: tag, .. }
        | Event::Fault { tag, .. }
        | Event::Recovery { tag, .. } => tag,
        other => panic!("no tag field in {other:?}"),
    }
}

#[test]
fn every_emitter_spelling_is_read_back_without_allocating() {
    let mut spellings: Vec<Event> = Vec::new();
    spellings.extend(
        successors(next_role(None), |k| next_role(Some(*k))).map(|k| Event::Arrival {
            sync: 1,
            node: 0,
            role: k.tag().into(),
            time_s: 1.0,
        }),
    );
    spellings.extend(
        successors(next_phase(None), |k| next_phase(Some(*k))).map(|k| Event::Phase {
            node: 0,
            kind: k.tag().into(),
            start_ns: 0,
            end_ns: 9,
        }),
    );
    spellings.extend(
        successors(next_fault(None), |k| next_fault(Some(*k))).map(|k| Event::Fault {
            sync: 1,
            node: 0,
            tag: k.tag().into(),
        }),
    );
    spellings.extend(
        successors(next_recovery(None), |k| next_recovery(Some(*k))).map(|k| Event::Recovery {
            sync: 1,
            node: 0,
            tag: k.tag().into(),
        }),
    );
    // The two literals `SeeSaw::on_sync` emits (crates/core/src/seesaw.rs).
    spellings.extend(
        ["corrupt_sample", "degenerate_feedback"]
            .map(|reason| Event::ControllerHold { sync: 1, reason: reason.into() }),
    );
    assert_eq!(spellings.len(), 2 + 11 + 11 + 7 + 2);
    for ev in spellings {
        let shown = format!("{ev:?}");
        assert!(matches!(reread(ev), Cow::Borrowed(_)), "not in obs's vocabulary: {shown}");
    }
}

#[test]
fn an_unlisted_tag_is_read_back_owned_and_equal() {
    let ev = Event::Fault { sync: 1, node: 4, tag: "gremlin".into() };
    let tag = reread(ev);
    assert!(matches!(tag, Cow::Owned(_)));
    assert_eq!(tag, "gremlin");
}
