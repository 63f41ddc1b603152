//! Zero-allocation gate for the MD hot path and the sync stepper.
//!
//! This test binary registers [`CountingAlloc`] as its global allocator
//! (its own process, so the counter sees nothing else)
//! and asserts that the warmed hot paths — force evaluation through
//! caller-owned scratch, in-place neighbor rebuilds, and whole engine
//! steps — perform **zero** heap allocations.
//!
//! The same holds one layer up: a warmed `insitu::Runtime` steps a
//! synchronization interval (node walks, PoLiMER feedback and exchange,
//! controller decision, cap apply, record, `energy_since` window restart) without
//! touching the allocator, except for the one buffer a node-granular
//! controller hands back inside each `Allocation` it returns.
//!
//! The analysis partition's RDF and MSD accumulators reuse their frame,
//! scratch and origin buffers, so a warmed accumulator observes a frame
//! without allocating.
//!
//! And in the trace emit path: a string-tag field of an event (`role`,
//! `kind`, `reason`, `tag`) borrows the emitter's `&'static str`, so
//! recording a tag-carrying event into a pre-sized buffer allocates
//! nothing — the owned form exists only for events parsed from a file.
//!
//! And in the trace read path, over a trace whose event count is pinned
//! exactly: the strict reader walks a line without
//! building anything and borrows every known tag, so re-reading a trace
//! allocates exactly one `Box` per `decision` line and nothing else; the
//! auditor looks its accumulators up by `&str`, so replaying or watching
//! a run allocates only what grows with the interval count; and the trace
//! differ's context rings reuse their slots once full. These are counts,
//! functions of the input alone, not timings.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global: concurrently running tests would pollute the deltas.

use audit::{StreamAuditor, TraceDiffer};
use insitu::{build_controller, run_job_traced, JobConfig, Runtime};
use mdsim::workload::WorkloadSpec;
use mdsim::{
    compute_forces_into, water_ion_box, Analysis, AnalysisKind, CoeffTable, ForceParams,
    ForceScratch, MdEngine, NeighborList, PairTable, Snapshot,
};
use obs::{Event, TraceEvent, Tracer};
use seesaw::{Allocation, Controller, SyncObservation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Pass-through to the system allocator that counts allocation requests
/// (`alloc`, `alloc_zeroed`, `realloc`) process-wide — exactly the signal
/// a "no allocation after warmup" gate needs; frees are not counted.
struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation requests observed so far (monotonic).
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Delegates to a controller and counts the allocations it decides on.
struct CountDecisions(Box<dyn Controller>, Arc<AtomicU64>);

impl Controller for CountDecisions {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        let decided = self.0.on_sync(obs);
        self.1.fetch_add(u64::from(decided.is_some()), Ordering::Relaxed);
        decided
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn budget_w(&self) -> Option<f64> {
        self.0.budget_w()
    }
    fn set_budget_w(&mut self, budget_w: f64) {
        self.0.set_budget_w(budget_w)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

#[test]
fn hot_paths_are_allocation_free_after_warmup() {
    // Force kernel + neighbor rebuild on a static system: after one
    // warming call each, repeated calls must not touch the allocator.
    let sys = water_ion_box(1, 1.0, 42);
    let params = ForceParams::default();
    let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
    let mut nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.4);
    let mut scratch = ForceScratch::new();
    let mut s = sys.clone();
    compute_forces_into(&mut scratch, &mut s, &nl, &coeffs, None);
    nl.rebuild(&s.pos);

    let before = allocations();
    for _ in 0..5 {
        compute_forces_into(&mut scratch, &mut s, &nl, &coeffs, None);
        nl.rebuild(&s.pos);
    }
    assert_eq!(allocations(), before, "force/neighbor hot path allocated");

    // A full engine: velocity-Verlet steps with skin-triggered
    // rebuilds on moving atoms. Generous warmup so the pair list has
    // seen its steady-state size (Vec growth leaves slack, so later
    // density fluctuations stay within capacity; the cell arrays are
    // sized by the atom count and never grow).
    let mut e = MdEngine::water_ion_benchmark(1, 43);
    let mut rebuilds = 0u32;
    for _ in 0..30 {
        rebuilds += u32::from(e.step().rebuilt);
    }
    assert!(rebuilds > 0, "warmup never rebuilt the neighbor list");

    let before = allocations();
    rebuilds = 0;
    for _ in 0..12 {
        rebuilds += u32::from(e.step().rebuilt);
    }
    assert_eq!(allocations(), before, "engine step allocated ({rebuilds} rebuilds)");

    // The analysis partition: 110 frames wrap the full MSD's origin
    // ring (20 origins × 5 frames), after which RDF and every MSD
    // variant reuse their buffers. VACF's series grows by design.
    let kinds =
        [AnalysisKind::Rdf, AnalysisKind::MsdFull, AnalysisKind::Msd1d, AnalysisKind::Msd2d];
    let mut analyses = kinds.map(Analysis::new);
    let mut e = MdEngine::water_ion_benchmark(1, 44);
    let mut observed = [0u64; 4];
    for frame in 0..130 {
        e.step();
        for (a, allocs) in analyses.iter_mut().zip(&mut observed) {
            let before = allocations();
            a.observe(&Snapshot::of(&e.system));
            if frame >= 110 {
                *allocs += allocations() - before;
            }
        }
    }
    assert_eq!(observed, [0; 4], "RDF, MSD full/1-D/2-D observe allocated after warm-up");

    // The sync stepper: a 128-node job under default noise, no faults,
    // tracer off. Two warm-up intervals size every reused buffer (the
    // runtime's scratch, PoLiMER's observation, the controllers' dense
    // state, the walk's operating-point memo).
    const MEASURED_SYNCS: u64 = 24;
    for name in ["static", "seesaw", "time-aware", "power-aware"] {
        let mut spec = WorkloadSpec::paper(36, 128, 1, &[AnalysisKind::Rdf, AnalysisKind::Vacf]);
        spec.total_steps = 2 + MEASURED_SYNCS;
        let cfg = JobConfig::new(spec, name);
        let decisions = Arc::new(AtomicU64::new(0));
        let ctl = build_controller(&cfg).expect("known controller");
        let counted = CountDecisions(ctl, Arc::clone(&decisions));
        let mut rt = Runtime::with_controller(cfg, Box::new(counted));
        for _ in 0..2 {
            assert!(rt.step_sync());
            rt.compact_history();
        }
        let (before, decided_before) = (allocations(), decisions.load(Ordering::Relaxed));
        for _ in 0..MEASURED_SYNCS {
            assert!(rt.step_sync());
            rt.compact_history();
        }
        let allocs = allocations() - before;
        let decided = decisions.load(Ordering::Relaxed) - decided_before;
        assert!(!rt.step_sync(), "{name}: the measured syncs are the rest of the run");
        match name {
            "static" => assert_eq!((allocs, decided), (0, 0), "{name}"),
            // Uniform allocations carry an empty per-node list.
            "seesaw" => assert_eq!((allocs, decided), (0, MEASURED_SYNCS), "{name}"),
            // One buffer per decision: the returned per-node list.
            // Time-aware decides at every sync.
            "time-aware" => assert_eq!((allocs, decided), (MEASURED_SYNCS, MEASURED_SYNCS)),
            _ => {
                assert_eq!(allocs, decided, "{name}: exactly one allocation per decision");
                assert!(decided > 0, "{name} never acted; the gate measured nothing");
            }
        }
    }

    // The emit path for every tag-carrying variant, through both the
    // per-event and the batched entry, into a pre-sized buffer.
    let tracer = Tracer::enabled();
    tracer.reserve(64);
    let mut batch = Vec::with_capacity(2);
    let before = allocations();
    for sync in 1..=4 {
        tracer.emit(Event::Arrival { sync, node: 0, role: "sim".into(), time_s: 1.0 });
        tracer.emit(Event::ControllerHold { sync, reason: "corrupt_sample".into() });
        tracer.emit(Event::Fault { sync, node: 1, tag: "node_crash".into() });
        tracer.emit(Event::Recovery { sync, node: 1, tag: "node_excluded".into() });
        let sample = Event::Sample {
            node: 0,
            role: "sim".into(),
            time_s: 1.0,
            power_w: 110.0,
            cap_w: 115.0,
        };
        let phase = Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 9 };
        batch.extend([sample, phase].map(|ev| TraceEvent { t: tracer.now(), ev }));
        tracer.emit_drain(&mut batch);
    }
    assert_eq!(allocations(), before, "emitting tag-carrying events allocated");
    assert_eq!(tracer.len(), 24);

    // The read path, over the trace of one 8-node seesaw run.
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Rdf, AnalysisKind::Vacf]);
    spec.total_steps = 60;
    let tracer = Tracer::enabled();
    run_job_traced(JobConfig::new(spec, "seesaw"), &tracer).expect("known controller");
    let (events, jsonl) = (tracer.events(), tracer.to_jsonl());
    let lines: Vec<&str> = jsonl.lines().collect();
    let decisions = lines.iter().filter(|l| l.contains("\"ev\":\"decision\"")).count() as u64;
    assert!(decisions > 0, "no decision among {} lines", lines.len());
    // A function of config and seed alone, so pinned exactly: an emit
    // site gained or lost shows up here.
    assert_eq!(lines.len(), 4_629, "events in the 8-node, 60-step seesaw trace");
    let budget = lines.len() as u64 / 10;

    let before = allocations();
    for line in &lines {
        drop(TraceEvent::parse_line(line).expect("the writer's line"));
    }
    assert_eq!(allocations() - before, decisions, "one Box per decision, nothing else");

    let mut replay = StreamAuditor::new();
    let before = allocations();
    for line in &lines {
        replay.feed_line(line).expect("the writer's line");
    }
    let replayed = allocations() - before;
    assert!(replayed <= budget, "replay audit: {replayed} allocations, {} events", lines.len());

    let mut live = StreamAuditor::new();
    let before = allocations();
    for ev in &events {
        live.feed(ev);
    }
    let watched = allocations() - before;
    assert!(watched <= budget, "live audit: {watched} allocations, {} events", events.len());
    assert_eq!(live.finish().report.to_json(), replay.finish().report.to_json());

    let mut differ = TraceDiffer::default();
    let before = allocations();
    for line in &lines {
        assert_eq!(differ.feed(Some(line), Some(line)), None);
    }
    let diffed = allocations() - before;
    assert!(diffed <= 5 * budget, "differ: {diffed} allocations, {} lines", lines.len());
}
