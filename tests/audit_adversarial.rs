//! The auditor's whole run document on hostile traces, pinned by digest.
//!
//! Each case mutates one real 8-node trace the way a damaged or forged
//! file could: intervals left open or numbered 0, spans outside every
//! interval, unknown phase kinds, non-finite power, faults, node ids past
//! `run_start`'s count up to `usize::MAX`, and a `run_start` that claims
//! 2⁶⁰ nodes. The auditor must take each without panicking or allocating
//! what the trace claims, and write the same document as before: any
//! change to how it keeps its state shows here as a digest change. A
//! mismatch prints the document.

use audit::StreamAuditor;
use insitu::{run_job_traced, JobConfig};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use obs::{Event, Tag, TraceEvent, Tracer};

/// The unmutated trace: 8 nodes, 6 intervals.
fn real_trace() -> Vec<TraceEvent> {
    let mut spec = WorkloadSpec::paper(16, 8, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = 6;
    let tracer = Tracer::enabled();
    run_job_traced(JobConfig::new(spec, "seesaw"), &tracer).expect("a known controller");
    tracer.events()
}

/// Index of the first event `pick` accepts.
fn find(events: &[TraceEvent], pick: impl Fn(&Event) -> bool) -> usize {
    events.iter().position(|e| pick(&e.ev)).expect("the trace has it")
}

fn sync_end(k: u64) -> impl Fn(&Event) -> bool {
    move |e| matches!(e, Event::SyncEnd { sync, .. } if *sync == k)
}

fn sync_start(k: u64) -> impl Fn(&Event) -> bool {
    move |e| matches!(e, Event::SyncStart { sync } if *sync == k)
}

/// An event at the stamp of `events[at]`, inserted before it.
fn insert(events: &mut Vec<TraceEvent>, at: usize, ev: Event) {
    let t = events[at].t;
    events.insert(at, TraceEvent { t, ev });
}

/// Interval 2's `sync_end` dropped: interval 3 opens while 2 is open.
fn open_then_next(events: &mut Vec<TraceEvent>) {
    events.remove(find(events, sync_end(2)));
}

/// Interval 1 numbered 0 at both ends.
fn sync_zero(events: &mut [TraceEvent]) {
    for e in events.iter_mut() {
        match &mut e.ev {
            Event::SyncStart { sync } | Event::SyncEnd { sync, .. } if *sync == 1 => *sync = 0,
            _ => {}
        }
    }
}

/// Intervals 2 and 3 never close, and node 0 is sampled again in 4, so
/// one node has samples in three open intervals.
fn one_node_in_open_intervals(events: &mut Vec<TraceEvent>) {
    for k in [2, 3] {
        events.remove(find(events, sync_end(k)));
    }
    let at = find(events, sync_end(4));
    let ev =
        Event::Sample { node: 0, role: "sim".into(), time_s: 1.0, power_w: 150.0, cap_w: 110.0 };
    insert(events, at, ev);
}

/// Interval 1's spans moved before it opens, and a span after the last
/// interval closes.
fn spans_outside_intervals(events: &mut Vec<TraceEvent>) {
    let (open, close) = (find(events, sync_start(1)), find(events, sync_end(1)));
    let spans: Vec<TraceEvent> = events[open..close]
        .iter()
        .filter(|e| matches!(e.ev, Event::Phase { .. } | Event::Wait { .. }))
        .cloned()
        .collect();
    events.retain(|e| !spans.contains(e));
    let open = find(events, sync_start(1));
    events.splice(open..open, spans);
    let last = events.iter().rposition(|e| matches!(e.ev, Event::SyncEnd { .. })).expect("an end");
    let t = events[last].t.as_nanos();
    let ev = Event::Phase { node: 3, kind: "force".into(), start_ns: t, end_ns: t + 1_000 };
    events.insert(last + 1, TraceEvent { t: events[last].t, ev });
}

/// Phase kinds off the vocabulary, and a known kind spelled as an owned
/// string.
fn unknown_phase_kinds(events: &mut [TraceEvent]) {
    let mut n = 0;
    for e in events.iter_mut() {
        if let Event::Phase { kind, .. } = &mut e.ev {
            *kind = match n % 3 {
                0 => Tag::Owned("mystery_kernel".to_string()),
                1 => Tag::Owned(kind.to_string()),
                _ => kind.clone(),
            };
            n += 1;
        }
    }
}

/// NaN and ±∞ sampled power in interval 2, and an infinite node energy.
fn non_finite_power(events: &mut [TraceEvent]) {
    let (open, close) = (find(events, sync_start(2)), find(events, sync_end(2)));
    for e in &mut events[open..close] {
        if let Event::Sample { node, power_w, .. } = &mut e.ev {
            *power_w = match node {
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => *power_w,
            };
        }
    }
    if let Some(e) = events.iter_mut().find(|e| matches!(e.ev, Event::NodeEnergy { node: 4, .. })) {
        e.ev = Event::NodeEnergy { node: 4, energy_j: f64::INFINITY };
    }
}

/// Sample spikes in interval 3: on node 2, whose sample was accepted, and
/// on node 5, whose sample is dropped.
fn sample_spikes(events: &mut Vec<TraceEvent>) {
    let (open, close) = (find(events, sync_start(3)), find(events, sync_end(3)));
    let dropped = events[open..close]
        .iter()
        .position(|e| matches!(e.ev, Event::Sample { node: 5, .. }))
        .expect("node 5 sampled");
    events.remove(open + dropped);
    for node in [2, 5] {
        insert(events, open + 1, Event::Fault { sync: 3, node, tag: "sample_spike".into() });
    }
}

/// Node ids past `run_start`'s count, up to `usize::MAX`, on every
/// per-node event kind, in interval 2 and after the run.
fn hostile_node_ids(events: &mut Vec<TraceEvent>) {
    let close = find(events, sync_end(2));
    let t = events[close].t.as_nanos();
    for node in [8, 1 << 40, i64::MAX as usize, usize::MAX - 1, usize::MAX] {
        let at = find(events, sync_end(2));
        let evs = [
            Event::Phase { node, kind: "force".into(), start_ns: t - 10, end_ns: t - 5 },
            Event::Wait { node, start_ns: t - 5, end_ns: t },
            Event::Sample {
                node,
                role: "analysis".into(),
                time_s: 1.0,
                power_w: 99.0,
                cap_w: 110.0,
            },
            Event::Arrival { sync: 2, node, role: "sim".into(), time_s: 1.0 },
        ];
        for ev in evs {
            insert(events, at, ev);
        }
        insert(events, events.len() - 1, Event::NodeEnergy { node, energy_j: 1.0 });
    }
}

/// `run_start` claims 2⁶⁰ simulation nodes.
fn huge_run_start(events: &mut [TraceEvent]) {
    if let Event::RunStart { sim_nodes, .. } = &mut events[0].ev {
        *sim_nodes = 1 << 60;
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Each case's mutation and the digest of its run document.
type Case = (&'static str, fn(&mut Vec<TraceEvent>), u64);

const CASES: [Case; 11] = [
    ("unmutated", |_| {}, 0x990f_03ec_ef23_3ed9),
    ("open_then_next", open_then_next, 0x772f_900e_6edf_579a),
    ("sync_zero", |e| sync_zero(e), 0xa0cc_3fa2_0af3_952d),
    ("one_node_in_open_intervals", one_node_in_open_intervals, 0xc4d6_3277_e678_d058),
    ("spans_outside_intervals", spans_outside_intervals, 0x1407_c965_40fb_a4fd),
    ("unknown_phase_kinds", |e| unknown_phase_kinds(e), 0x3fd8_4617_8905_02e9),
    ("non_finite_power", |e| non_finite_power(e), 0x22a0_89de_e283_f0ae),
    ("sample_spikes", sample_spikes, 0x2f62_ef4e_0b85_af7c),
    ("hostile_node_ids", hostile_node_ids, 0xc09a_6272_283d_73b8),
    ("huge_run_start", |e| huge_run_start(e), 0x990f_03ec_ef23_3ed9),
    (
        "all_at_once",
        |e| {
            hostile_node_ids(e);
            sample_spikes(e);
            non_finite_power(e);
            unknown_phase_kinds(e);
            one_node_in_open_intervals(e);
            huge_run_start(e);
        },
        0x2c96_1c0b_426b_0995,
    ),
];

#[test]
fn hostile_traces_write_the_pinned_run_documents() {
    let real = real_trace();
    let mut wrong = Vec::new();
    for (name, mutate, pinned) in CASES {
        let mut events = real.clone();
        mutate(&mut events);
        let mut auditor = StreamAuditor::new();
        events.iter().for_each(|e| auditor.feed(e));
        let doc = auditor.finish().to_json();
        audit::json::parse(&doc).expect("the run document parses");
        let got = fnv(doc.as_bytes());
        if got != pinned {
            eprintln!("--- {name}: {got:#018x}, pinned {pinned:#018x}\n{doc}");
            wrong.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "run documents moved:\n  {}", wrong.join("\n  "));
}

/// Every case replays to the live document: the strict reader reads back
/// every line the writer wrote, node ids to `usize::MAX` included.
#[test]
fn hostile_traces_replay_like_their_live_audit() {
    let real = real_trace();
    for (name, mutate, _) in CASES {
        let mut events = real.clone();
        mutate(&mut events);
        let mut live = StreamAuditor::new();
        let mut replay = StreamAuditor::new();
        for e in &events {
            live.feed(e);
            let line = e.to_json_line();
            replay.feed_line(&line).unwrap_or_else(|err| panic!("{name}: {line}: {err}"));
        }
        assert_eq!(live.finish().to_json(), replay.finish().to_json(), "{name}");
    }
}
