//! The three public seams where a harness type can sit inside the
//! program: each delegates every call and records a span around the one
//! that does the layer's work.

use crate::span::{self, Name};
use mdsim::workload::{StepWork, WorkloadGen, WorkloadSpec};
use obs::{EventSubscriber, TraceEvent, Tracer};
use seesaw::{Allocation, Controller, SyncObservation};

/// A workload generator that times `step_work` (`mdsim` layer).
pub struct SpanWorkload<W>(pub W);

impl<W: WorkloadGen> WorkloadGen for SpanWorkload<W> {
    fn spec(&self) -> &WorkloadSpec {
        self.0.spec()
    }

    fn step_work(&mut self, step: u64) -> StepWork {
        span::scope(Name::MdsimStepWork, || self.0.step_work(step))
    }
}

/// A controller that times `on_sync` (`core` layer).
pub struct SpanController(pub Box<dyn Controller>);

impl Controller for SpanController {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        span::scope(Name::CoreOnSync, || self.0.on_sync(obs))
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn budget_w(&self) -> Option<f64> {
        self.0.budget_w()
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        self.0.set_budget_w(budget_w);
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.0.attach_tracer(tracer);
    }
}

/// An event subscriber that times `on_event` (`audit` layer, live side).
pub struct SpanSubscriber<S>(pub S);

impl<S: EventSubscriber> EventSubscriber for SpanSubscriber<S> {
    fn on_event(&mut self, ev: &TraceEvent) {
        span::scope(Name::AuditOnEvent, || self.0.on_event(ev));
    }
}
