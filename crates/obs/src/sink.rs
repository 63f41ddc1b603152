//! The trace sink: a cheap, cloneable handle that is either **off** (a
//! `None` branch — the disabled path does no allocation, no locking, and
//! no formatting) or **on** (an `Arc` around one recording core).
//!
//! One tracer belongs to one run. Events are recorded in program order of
//! the run that owns the tracer; since a run executes on a single worker
//! thread (the `par` pool parallelizes *across* runs, not within one),
//! the record order — and therefore both the serialized trace and every
//! subscriber's view — is a pure function of the run's inputs.
//!
//! An enabled tracer comes in two flavours:
//!
//! - [`Tracer::enabled`] **buffers** every event for later export
//!   ([`Tracer::events`] / [`Tracer::to_jsonl`]), the right mode when a
//!   trace file was requested.
//! - [`Tracer::streaming`] keeps **no buffer at all**: events flow to the
//!   attached [`EventSubscriber`]s and are dropped, so an audited run's
//!   peak observability memory is the subscribers' own state, not the
//!   event volume.
//!
//! Either way the hot path is a single uncontended lock per record (one
//! per *batch* through [`Tracer::emit_drain`]): the subscriber fan-out in
//! attach order and — only when buffering — a `Vec` push. Counting and
//! summarizing events is a subscriber's job (`audit::StreamAuditor`), not
//! the sink's.

use crate::event::{to_jsonl, Event, TraceEvent};
use des::SimTime;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer of the live event stream.
///
/// Subscribers attached via [`Tracer::attach`] see every event the tracer
/// records — `emit`, `emit_at`, and `emit_drain` alike — in exact record
/// order, under the sink lock, *before* the event is (optionally)
/// buffered. Because record order is deterministic sim-time order, a
/// subscriber's state is as reproducible as the trace itself. A drained
/// batch reaches each subscriber whole, in attach order.
///
/// Calls happen under the tracer's internal lock: implementations must
/// not call back into the tracer.
pub trait EventSubscriber: Send {
    /// Observe one recorded event.
    fn on_event(&mut self, ev: &TraceEvent);

    /// Observe drained batches of recorded events, in order: one call per
    /// [`Tracer::emit_drain`] or [`Tracer::emit_drain_all`].
    fn on_batches(&mut self, batches: &[Vec<TraceEvent>]) {
        batches.iter().flatten().for_each(|ev| self.on_event(ev));
    }
}

/// Share one subscriber between the tracer and the caller: the tracer
/// feeds it through the mutex while the caller keeps a handle to collect
/// the final state.
impl<S: EventSubscriber> EventSubscriber for Arc<Mutex<S>> {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.lock().expect("subscriber poisoned").on_event(ev);
    }

    /// One lock for all the batches.
    fn on_batches(&mut self, batches: &[Vec<TraceEvent>]) {
        self.lock().expect("subscriber poisoned").on_batches(batches);
    }
}

/// Everything mutated per record, under one lock: the optional buffer
/// and the attached subscribers.
struct Recording {
    events: Vec<TraceEvent>,
    subscribers: Vec<Box<dyn EventSubscriber>>,
}

impl Recording {
    /// Fan one event out: subscribers in attach order, then (buffering
    /// tracers only) the buffer.
    fn record(&mut self, buffering: bool, te: TraceEvent) {
        for sub in &mut self.subscribers {
            sub.on_event(&te);
        }
        if buffering {
            self.events.push(te);
        }
    }
}

struct Inner {
    /// The "current" simulated time, set by the layer that owns the clock
    /// (the runtime) so layers without a clock (controllers, the power
    /// manager) can stamp events without threading `SimTime` through
    /// every call signature.
    now_ns: AtomicU64,
    /// Whether events are kept after the subscriber fan-out. Fixed at
    /// construction: [`Tracer::enabled`] buffers, [`Tracer::streaming`]
    /// does not.
    buffering: bool,
    rec: Mutex<Recording>,
}

impl Inner {
    fn new(buffering: bool) -> Self {
        Inner {
            now_ns: AtomicU64::new(0),
            buffering,
            rec: Mutex::new(Recording { events: Vec::new(), subscribers: Vec::new() }),
        }
    }

    /// Record one stamped event. Out of line on purpose: the inlined
    /// `emit`/`emit_at` wrappers assemble the [`TraceEvent`] in the
    /// caller's frame, so the event's fields are stored once and copied
    /// once (into the buffer) instead of travelling as an `Event`, being
    /// re-wrapped here, and copied again.
    #[inline(never)]
    fn record_one(&self, te: TraceEvent) {
        self.rec.lock().expect("trace sink poisoned").record(self.buffering, te);
    }
}

/// A handle to one run's trace. Cloning is cheap (an `Arc` bump when
/// enabled, a copy of `None` when disabled); all clones feed the same
/// recording core. The default handle is **off**.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    /// The disabled tracer: every operation is a branch on `None`.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// An enabled tracer with an empty buffer.
    pub fn enabled() -> Self {
        Tracer(Some(Arc::new(Inner::new(true))))
    }

    /// An enabled tracer that keeps **no buffer**: every recorded event
    /// is handed to the attached [`EventSubscriber`]s and dropped. The
    /// constant-memory mode for audited runs whose trace is never
    /// exported — `events()`/`to_jsonl()` return empty.
    pub fn streaming() -> Self {
        Tracer(Some(Arc::new(Inner::new(false))))
    }

    /// Whether events are being recorded. Hot call sites gate event
    /// construction on this so the disabled path stays free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attach a subscriber to the live event stream. It sees every event
    /// recorded from this point on, in record order. No-op on a disabled
    /// tracer (the subscriber is dropped — nothing will ever flow).
    pub fn attach(&self, sub: Box<dyn EventSubscriber>) {
        if let Some(inner) = &self.0 {
            inner.rec.lock().expect("trace sink poisoned").subscribers.push(sub);
        }
    }

    /// Pre-size the event buffer for roughly `additional` more events, so
    /// steady-state recording never pays a reallocation-and-copy. Callers
    /// that can estimate their run's event volume (the runtime knows its
    /// sync count and node count) should call this once up front; a
    /// generous overestimate costs only address space. No-op on
    /// streaming tracers — there is no buffer to size.
    pub fn reserve(&self, additional: usize) {
        if let Some(inner) = &self.0 {
            if inner.buffering {
                inner.rec.lock().expect("trace sink poisoned").events.reserve(additional);
            }
        }
    }

    /// Advance the shared sim-time stamp used by [`Tracer::emit`].
    #[inline]
    pub fn set_now(&self, t: SimTime) {
        if let Some(inner) = &self.0 {
            inner.now_ns.store(t.as_nanos(), Ordering::Relaxed);
        }
    }

    /// The current sim-time stamp.
    pub fn now(&self) -> SimTime {
        match &self.0 {
            Some(inner) => SimTime::from_nanos(inner.now_ns.load(Ordering::Relaxed)),
            None => SimTime::ZERO,
        }
    }

    /// Record `ev` at the current sim-time stamp.
    #[inline(always)]
    pub fn emit(&self, ev: Event) {
        if let Some(inner) = &self.0 {
            let t = SimTime::from_nanos(inner.now_ns.load(Ordering::Relaxed));
            inner.record_one(TraceEvent { t, ev });
        }
    }

    /// Record `ev` at an explicit instant (events that carry their own
    /// span, e.g. phases).
    #[inline(always)]
    pub fn emit_at(&self, t: SimTime, ev: Event) {
        if let Some(inner) = &self.0 {
            inner.record_one(TraceEvent { t, ev });
        }
    }

    /// Record a batch of pre-stamped events under **one** lock
    /// acquisition, clearing `buf` (its capacity is retained). Hot
    /// emitters that own their events (`&mut self` call sites) batch into
    /// a local scratch and drain per synchronization interval — one lock
    /// per interval instead of one per event. Each subscriber sees the
    /// batch in one [`EventSubscriber::on_batches`] call; on a disabled
    /// tracer the batch is discarded.
    pub fn emit_drain(&self, buf: &mut Vec<TraceEvent>) {
        self.emit_drain_all(std::slice::from_mut(buf));
    }

    /// [`emit_drain`](Tracer::emit_drain) each of `bufs` in order, under
    /// one lock and one [`EventSubscriber::on_batches`] call per
    /// subscriber.
    pub fn emit_drain_all(&self, bufs: &mut [Vec<TraceEvent>]) {
        if let Some(inner) = &self.0 {
            let mut rec = inner.rec.lock().expect("trace sink poisoned");
            for sub in &mut rec.subscribers {
                sub.on_batches(bufs);
            }
            if inner.buffering {
                bufs.iter_mut().for_each(|buf| rec.events.append(buf));
                return;
            }
        }
        bufs.iter_mut().for_each(Vec::clear);
    }

    /// Number of buffered events (0 for streaming tracers, whose
    /// subscribers do the counting).
    pub fn len(&self) -> usize {
        match &self.0 {
            Some(inner) => inner.rec.lock().expect("trace sink poisoned").events.len(),
            None => 0,
        }
    }

    /// True when the buffer holds nothing (always true when disabled or
    /// streaming).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the buffered events.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(inner) => inner.rec.lock().expect("trace sink poisoned").events.clone(),
            None => Vec::new(),
        }
    }

    /// Serialize the buffer as JSONL.
    pub fn to_jsonl(&self) -> String {
        match &self.0 {
            Some(inner) => to_jsonl(&inner.rec.lock().expect("trace sink poisoned").events),
            None => String::new(),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "Tracer(off)"),
            Some(inner) if !inner.buffering => write!(f, "Tracer(streaming)"),
            Some(_) => write!(f, "Tracer({} events)", self.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        t.set_now(SimTime::from_nanos(5));
        t.emit(Event::SyncStart { sync: 1 });
        assert!(!t.is_enabled());
        assert!(t.is_empty());
    }

    #[test]
    fn emit_uses_the_shared_clock() {
        let t = Tracer::enabled();
        t.set_now(SimTime::from_nanos(42));
        t.emit(Event::SyncStart { sync: 1 });
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].t, SimTime::from_nanos(42));
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled();
        let c = t.clone();
        c.set_now(SimTime::from_nanos(7));
        c.emit(Event::SyncStart { sync: 1 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn reserve_is_a_no_op_on_disabled_tracers() {
        Tracer::off().reserve(1 << 20);
        Tracer::streaming().reserve(1 << 20);
        let t = Tracer::enabled();
        t.reserve(128);
        t.emit(Event::SyncStart { sync: 1 });
        assert_eq!(t.len(), 1);
    }

    /// A subscriber that counts events and records the last stamp.
    #[derive(Default)]
    struct Probe {
        seen: Vec<u64>,
    }

    impl EventSubscriber for Probe {
        fn on_event(&mut self, ev: &TraceEvent) {
            self.seen.push(ev.t.as_nanos());
        }
    }

    #[test]
    fn streaming_tracer_buffers_nothing_but_feeds_subscribers() {
        let probe = Arc::new(Mutex::new(Probe::default()));
        let t = Tracer::streaming();
        t.attach(Box::new(Arc::clone(&probe)));
        t.set_now(SimTime::from_nanos(3));
        t.emit(Event::SyncStart { sync: 1 });
        t.emit_at(SimTime::from_nanos(9), Event::SyncEnd { sync: 1, overhead_s: 0.0 });
        let mut batch =
            vec![TraceEvent { t: SimTime::from_nanos(11), ev: Event::SyncStart { sync: 2 } }];
        t.emit_drain(&mut batch);
        assert!(batch.is_empty(), "drain consumes the batch");
        assert!(t.is_empty(), "streaming tracers keep no buffer");
        assert!(t.events().is_empty());
        assert_eq!(t.to_jsonl(), "");
        assert!(t.is_enabled());
        assert_eq!(probe.lock().unwrap().seen, vec![3, 9, 11]);
    }

    #[test]
    fn buffered_tracer_feeds_subscribers_in_record_order() {
        let probe = Arc::new(Mutex::new(Probe::default()));
        let t = Tracer::enabled();
        t.attach(Box::new(Arc::clone(&probe)));
        t.set_now(SimTime::from_nanos(1));
        t.emit(Event::SyncStart { sync: 1 });
        let mut batch = vec![
            TraceEvent { t: SimTime::from_nanos(2), ev: Event::SampleRejected { node: 0 } },
            TraceEvent {
                t: SimTime::from_nanos(4),
                ev: Event::SyncEnd { sync: 1, overhead_s: 0.0 },
            },
        ];
        t.emit_drain(&mut batch);
        assert_eq!(t.len(), 3, "buffered mode still keeps every event");
        assert_eq!(probe.lock().unwrap().seen, vec![1, 2, 4]);
    }

    #[test]
    fn attach_on_disabled_tracer_is_a_no_op() {
        let probe = Arc::new(Mutex::new(Probe::default()));
        let t = Tracer::off();
        t.attach(Box::new(Arc::clone(&probe)));
        t.emit(Event::SyncStart { sync: 1 });
        assert!(probe.lock().unwrap().seen.is_empty());
    }
}
