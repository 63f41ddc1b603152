//! The invariant battery: structural and physical consistency checks over
//! one trace, implemented as **incremental checkers**.
//!
//! Every check is a small state machine fed one event at a time
//! ([`StreamChecker::feed`]) and flushed once at end of stream
//! ([`StreamChecker::finish`]). Checker state is bounded by the run's
//! *shape* — open spans, nodes, live jobs — never by its length, so the
//! battery audits a multi-gigabyte trace in constant memory. The batch
//! entry point ([`check_all`]) is a few-line loop that feeds the same
//! checker from an in-memory [`Trace`]: there is exactly one
//! implementation of every invariant, which is what makes the streaming
//! and batch audit reports byte-identical by construction.
//!
//! The checks encode what the simulator *promises*, so a passing audit is
//! evidence the run obeyed its own physics, and a failing one points at
//! the layer that broke its contract:
//!
//! - **clock**: the shared sim-time stamp never runs backwards (span
//!   events carry their own explicit times and are exempt).
//! - **sync**: synchronization intervals are numbered 1,2,3,… and well
//!   nested; only a halted run may leave the last interval open.
//! - **spans**: per node, phase/wait spans are ordered and non-overlapping,
//!   and every span lies inside its enclosing interval.
//! - **budget**: at every decision, the granted per-node caps times the
//!   partition sizes stay within the current budget (renormalizations
//!   tracked), except when the budget sits below the feasibility floor
//!   `n · δ_min` — then every cap must be pinned at `δ_min`.
//! - **cap_range** / **actuation**: every RAPL grant is the clamp of its
//!   request (or the TDP fallback of an uncapped domain) inside
//!   `[δ_min, δ_max]`, and enforcement happens either immediately (no-op
//!   or swallowed request) or at least one actuation latency later.
//! - **energy**: per-interval and per-node energies each sum to the run
//!   total (the intervals tile `[0, T]`).
//! - **envelope**: machine-level epoch divisions sum to the envelope.
//! - **faults**: every injected fault that mandates a graceful-degradation
//!   action got one. Streaming note: the evidence for the fault at plan
//!   ordinal `s` lives in interval `s + 1`, so the checker judges each
//!   fault when that interval closes (or at end of stream) and then
//!   prunes the closed interval's evidence — the lookback window is one
//!   interval, not the whole trace.
//! - **fleet**: across machine failures, no job is lost or double-run, the
//!   retry/backoff schedule is monotone, capped, and pair-matched with
//!   dispatches, machine down/up declarations alternate, and every
//!   envelope renormalization conserves the fleet envelope over live
//!   members. Gated on the `fleet_start` header, which real fleet traces
//!   emit before any other fleet event.
//! - **lifecycle**: on machine-scheduler traces (gated on
//!   `machine_start`), every job start/complete/kill respects the
//!   arrival → running → terminal protocol — no job starts twice, completes
//!   without running, or acts after its terminal event.
//! - **halt** (advisory): a run that opened intervals but never reached
//!   its `run_end` epilogue halted mid-run — legal under partition death,
//!   worth a look otherwise.
//!
//! Every violation carries a namespaced diagnostic code ([`crate::diag`]):
//! `AUDIT0001` (clock) through `AUDIT0012` (halt).

use crate::diag::{self, DiagCode, Severity, Violation};
use crate::trace::Trace;
use obs::{Event, Tag, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Absolute slack for watt-level comparisons (budget/cap arithmetic is
/// exact modulo float association).
const EPS_W: f64 = 1e-6;
/// Relative tolerance for energy identities (sums over many intervals
/// accumulate association error only).
const ENERGY_REL_TOL: f64 = 1e-6;

fn v(out: &mut Vec<Violation>, code: DiagCode, detail: String) {
    out.push(Violation::new(code, detail));
}

/// Run the full battery over an in-memory trace.
pub fn check_all(trace: &Trace) -> Vec<Violation> {
    let mut checker = StreamChecker::default();
    for ev in &trace.events {
        checker.feed(ev);
    }
    checker.finish()
}

/// Span-carrying kinds stamp themselves at explicit (possibly past)
/// instants; everything else rides the shared clock and must be
/// non-decreasing in buffer order.
fn rides_shared_clock(kind: &Event) -> bool {
    !matches!(
        kind,
        Event::Phase { .. } | Event::Wait { .. } | Event::Arrival { .. } | Event::CapRequest { .. }
    )
}

/// The full incremental battery: feed events in stream order, then
/// [`finish`](StreamChecker::finish) for the concatenated findings in
/// battery order (clock, sync, spans, budget, caps, energy, envelope,
/// faults, fleet, lifecycle, halt).
///
/// State held between events is O(active spans + nodes + live jobs +
/// one fault-evidence window) — independent of trace length.
#[derive(Debug, Default)]
pub struct StreamChecker {
    clock: ClockChecker,
    sync: SyncChecker,
    spans: SpansChecker,
    budget: BudgetChecker,
    caps: CapsChecker,
    energy: EnergyChecker,
    envelope: EnvelopeChecker,
    faults: FaultChecker,
    fleet: FleetChecker,
    lifecycle: LifecycleChecker,
    halt: HaltChecker,
}

impl StreamChecker {
    /// Feed one event through every checker.
    pub fn feed(&mut self, ev: &TraceEvent) {
        self.clock.feed(ev);
        self.sync.feed(ev);
        self.spans.feed(ev);
        self.budget.feed(ev);
        self.caps.feed(ev);
        self.energy.feed(ev);
        self.envelope.feed(ev);
        self.faults.feed(ev);
        self.fleet.feed(ev);
        self.lifecycle.feed(ev);
        self.halt.feed(ev);
    }

    /// Error-severity findings accumulated so far (advisories excluded).
    /// Checks that only conclude at end of stream (energy identities, the
    /// lost-job scan) are not yet reflected — this is the live count a
    /// health snapshot quotes mid-run.
    pub fn errors_so_far(&self) -> u64 {
        [
            &self.clock.out,
            &self.sync.out,
            &self.spans.out,
            &self.budget.out,
            &self.caps.out,
            &self.energy.out,
            &self.envelope.out,
            &self.faults.out,
            &self.fleet.out,
            &self.lifecycle.out,
            &self.halt.out,
        ]
        .iter()
        .flat_map(|o| o.iter())
        .filter(|x| x.severity() == Severity::Error)
        .count() as u64
    }

    /// Flush end-of-stream checks and return every finding, battery order.
    pub fn finish(mut self) -> Vec<Violation> {
        self.energy.finish();
        self.faults.finish();
        self.fleet.finish();
        self.halt.finish();
        let mut out = self.clock.out;
        out.append(&mut self.sync.out);
        out.append(&mut self.spans.out);
        out.append(&mut self.budget.out);
        out.append(&mut self.caps.out);
        out.append(&mut self.energy.out);
        out.append(&mut self.envelope.out);
        out.append(&mut self.faults.out);
        out.append(&mut self.fleet.out);
        out.append(&mut self.lifecycle.out);
        out.append(&mut self.halt.out);
        out
    }
}

// --- clock ---------------------------------------------------------------

#[derive(Debug, Default)]
struct ClockChecker {
    index: u64,
    last: u64,
    out: Vec<Violation>,
}

impl ClockChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let i = self.index;
        self.index += 1;
        if rides_shared_clock(&ev.ev) {
            if ev.t.as_nanos() < self.last {
                v(
                    &mut self.out,
                    diag::CLOCK,
                    format!(
                        "event {} ({}) at t={}ns precedes earlier stamp {}ns",
                        i,
                        ev.ev.tag(),
                        ev.t.as_nanos(),
                        self.last
                    ),
                );
            }
            self.last = self.last.max(ev.t.as_nanos());
        }
    }
}

// --- sync ----------------------------------------------------------------

#[derive(Debug, Default)]
struct SyncChecker {
    open: Option<u64>,
    next_expected: Option<u64>,
    seen_run_end: bool,
    out: Vec<Violation>,
}

impl SyncChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let out = &mut self.out;
        if self.seen_run_end {
            v(out, diag::SYNC, format!("event ({}) after run_end", ev.ev.tag()));
            self.seen_run_end = false; // report once
        }
        match &ev.ev {
            Event::SyncStart { sync } => {
                if let Some(k) = self.open {
                    v(out, diag::SYNC, format!("sync {sync} opened while sync {k} still open"));
                }
                let next_expected = self.next_expected.unwrap_or(1);
                if *sync != next_expected {
                    v(out, diag::SYNC, format!("sync {sync} opened, expected {next_expected}"));
                }
                self.open = Some(*sync);
                self.next_expected = Some(*sync + 1);
            }
            Event::SyncEnd { sync, .. } => match self.open.take() {
                Some(k) if k == *sync => {}
                Some(k) => v(out, diag::SYNC, format!("sync_end {sync} closes open sync {k}")),
                None => v(out, diag::SYNC, format!("sync_end {sync} with no open sync")),
            },
            // Controller-plane events are 0-based: interval k runs the
            // exchange for observation k-1.
            Event::ExchangeDone { sync, .. }
            | Event::AllocationHeld { sync }
            | Event::ControllerHold { sync, .. } => {
                if let Some(k) = self.open.filter(|&k| k > 0) {
                    if *sync != k - 1 {
                        v(
                            out,
                            diag::SYNC,
                            format!(
                                "{} carries observation index {sync} inside interval {k} \
                                 (expected {})",
                                ev.ev.tag(),
                                k - 1
                            ),
                        );
                    }
                }
            }
            Event::Decision(d) => {
                if let Some(k) = self.open.filter(|&k| k > 0) {
                    if d.sync != k - 1 {
                        v(
                            out,
                            diag::SYNC,
                            format!(
                                "decision carries observation index {} inside interval {k} \
                                 (expected {})",
                                d.sync,
                                k - 1
                            ),
                        );
                    }
                }
            }
            Event::RunEnd { .. } => self.seen_run_end = true,
            _ => {}
        }
        // A final open interval is legal only as a halt (partition death);
        // the advisory halt checker reports that case separately.
    }
}

// --- spans ---------------------------------------------------------------

#[derive(Debug, Default)]
struct SpansChecker {
    last_end: BTreeMap<usize, u64>,
    window_start: Option<u64>,
    open_sync: Option<u64>,
    /// (node, start, end, what) of spans awaiting the interval close.
    pending: Vec<(usize, u64, u64, &'static str)>,
    out: Vec<Violation>,
}

impl SpansChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let out = &mut self.out;
        match &ev.ev {
            Event::SyncStart { sync } => {
                self.window_start = Some(ev.t.as_nanos());
                self.open_sync = Some(*sync);
                self.pending.clear();
            }
            Event::SyncEnd { sync, .. } => {
                let t_end = ev.t.as_nanos();
                for (node, start, end, what) in self.pending.drain(..) {
                    if end > t_end {
                        v(
                            out,
                            diag::SPANS,
                            format!(
                                "{what} span [{start}, {end}]ns on node {node} overruns \
                                 interval {sync} end {t_end}ns"
                            ),
                        );
                    }
                }
                self.window_start = None;
                self.open_sync = None;
            }
            Event::Phase { node, start_ns, end_ns, .. }
            | Event::Wait { node, start_ns, end_ns } => {
                let what = if matches!(ev.ev, Event::Phase { .. }) { "phase" } else { "wait" };
                if start_ns > end_ns {
                    v(
                        out,
                        diag::SPANS,
                        format!(
                            "{what} span on node {node} runs backwards: [{start_ns}, {end_ns}]ns"
                        ),
                    );
                }
                let prev = self.last_end.entry(*node).or_insert(0);
                if *start_ns < *prev {
                    v(
                        out,
                        diag::SPANS,
                        format!(
                            "{what} span [{start_ns}, {end_ns}]ns on node {node} overlaps \
                             earlier activity ending at {}ns",
                            prev
                        ),
                    );
                }
                *prev = (*prev).max(*end_ns);
                if let (Some(w0), Some(k)) = (self.window_start, self.open_sync) {
                    if *start_ns < w0 {
                        v(
                            out,
                            diag::SPANS,
                            format!(
                                "{what} span [{start_ns}, {end_ns}]ns on node {node} starts \
                                 before interval {k} start {w0}ns"
                            ),
                        );
                    }
                    self.pending.push((*node, *start_ns, *end_ns, what));
                }
            }
            _ => {}
        }
    }
}

// --- budget --------------------------------------------------------------

#[derive(Debug, Default)]
struct BudgetChecker {
    budget: Option<f64>,
    min_cap: Option<f64>,
    out: Vec<Violation>,
}

impl BudgetChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let out = &mut self.out;
        match &ev.ev {
            Event::RunStart { budget_w, min_cap_w, .. } => {
                self.budget = Some(*budget_w);
                self.min_cap = Some(*min_cap_w);
            }
            Event::BudgetRenormalized { budget_w } => {
                if !budget_w.is_finite() || *budget_w < 0.0 {
                    v(out, diag::BUDGET, format!("renormalized budget is not a power: {budget_w}"));
                }
                self.budget = Some(*budget_w);
            }
            Event::Decision(d) => {
                let (Some(b), Some(floor)) = (self.budget, self.min_cap) else { return };
                let n = (d.sim_nodes + d.analysis_nodes) as f64;
                let total =
                    d.sim_node_w * d.sim_nodes as f64 + d.analysis_node_w * d.analysis_nodes as f64;
                let tol = EPS_W * n.max(1.0);
                // Below the feasibility floor the allocator pins every cap
                // at δ_min and the total legitimately exceeds the budget.
                let at_floor = d.sim_node_w <= floor + tol && d.analysis_node_w <= floor + tol;
                if !(total <= b + tol || at_floor) {
                    v(
                        out,
                        diag::BUDGET,
                        format!(
                            "decision at observation {}: allocation {:.6} W exceeds budget \
                             {:.6} W ({} sim nodes x {:.6} W + {} analysis nodes x {:.6} W)",
                            d.sync,
                            total,
                            b,
                            d.sim_nodes,
                            d.sim_node_w,
                            d.analysis_nodes,
                            d.analysis_node_w
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

// --- caps ----------------------------------------------------------------

#[derive(Debug, Default)]
struct CapsChecker {
    range: Option<(f64, f64)>,
    actuation_ns: Option<u64>,
    out: Vec<Violation>,
}

impl CapsChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let out = &mut self.out;
        match &ev.ev {
            Event::RunStart { min_cap_w, max_cap_w, actuation_ns: a, .. } => {
                self.range = Some((*min_cap_w, *max_cap_w));
                self.actuation_ns = Some(*a);
            }
            Event::CapRequest { node, requested_w, granted_w, effective_ns } => {
                if let Some((lo, hi)) = self.range {
                    if !(*granted_w >= lo - EPS_W && *granted_w <= hi + EPS_W) {
                        v(
                            out,
                            diag::CAP_RANGE,
                            format!(
                                "node {node}: granted cap {granted_w} W outside \
                                 [{lo}, {hi}] W"
                            ),
                        );
                    }
                    let clamp = requested_w.clamp(lo, hi);
                    // An uncapped domain (CapMode::None) reports its TDP
                    // regardless of the request.
                    let ok = (granted_w - clamp).abs() <= EPS_W || (granted_w - hi).abs() <= EPS_W;
                    if !ok {
                        v(
                            out,
                            diag::CAP_RANGE,
                            format!(
                                "node {node}: granted cap {granted_w} W is neither \
                                 clamp({requested_w}) = {clamp} W nor the TDP {hi} W"
                            ),
                        );
                    }
                }
                if let Some(a) = self.actuation_ns {
                    // Enforcement is either immediate (no-op request,
                    // stuck PCU) or at least one actuation latency out.
                    if *effective_ns != ev.t.as_nanos() && *effective_ns < ev.t.as_nanos() + a {
                        v(
                            out,
                            diag::ACTUATION,
                            format!(
                                "node {node}: cap requested at {}ns enforced at {}ns, \
                                 sooner than the {}ns actuation latency",
                                ev.t.as_nanos(),
                                effective_ns,
                                a
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

// --- energy --------------------------------------------------------------

#[derive(Debug, Default)]
struct EnergyChecker {
    sync_sum: f64,
    node_sum: f64,
    have_sync: bool,
    have_node: bool,
    total: Option<f64>,
    out: Vec<Violation>,
}

impl EnergyChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let out = &mut self.out;
        match &ev.ev {
            Event::SyncEnergy { sync, energy_j } => {
                self.have_sync = true;
                if !energy_j.is_finite() || *energy_j < 0.0 {
                    v(
                        out,
                        diag::ENERGY,
                        format!("interval {sync} energy is not physical: {energy_j}"),
                    );
                } else {
                    self.sync_sum += energy_j;
                }
            }
            Event::NodeEnergy { node, energy_j } => {
                self.have_node = true;
                if !energy_j.is_finite() || *energy_j < 0.0 {
                    v(out, diag::ENERGY, format!("node {node} energy is not physical: {energy_j}"));
                } else {
                    self.node_sum += energy_j;
                }
            }
            Event::RunEnd { total_energy_j, .. } => self.total = Some(*total_energy_j),
            _ => {}
        }
    }

    fn finish(&mut self) {
        let Some(total) = self.total else { return };
        let tol = ENERGY_REL_TOL * total.abs().max(1.0);
        if self.have_sync && (self.sync_sum - total).abs() > tol {
            v(
                &mut self.out,
                diag::ENERGY,
                format!(
                    "interval energies sum to {} J but the run total is {total} J \
                     (tolerance {tol} J)",
                    self.sync_sum
                ),
            );
        }
        if self.have_node && (self.node_sum - total).abs() > tol {
            v(
                &mut self.out,
                diag::ENERGY,
                format!(
                    "node energies sum to {} J but the run total is {total} J \
                     (tolerance {tol} J)",
                    self.node_sum
                ),
            );
        }
    }
}

// --- envelope ------------------------------------------------------------

#[derive(Debug, Default)]
struct EnvelopeChecker {
    envelope: Option<f64>,
    out: Vec<Violation>,
}

impl EnvelopeChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        let out = &mut self.out;
        match &ev.ev {
            Event::MachineStart { envelope_w, .. } => self.envelope = Some(*envelope_w),
            Event::MachineBudget { epoch, allocated_w, pool_w } => {
                let Some(env) = self.envelope else { return };
                if *allocated_w < -EPS_W || *pool_w < -EPS_W {
                    v(
                        out,
                        diag::ENVELOPE,
                        format!("epoch {epoch}: negative power ({allocated_w} W allocated, {pool_w} W pool)"),
                    );
                }
                if (allocated_w + pool_w - env).abs() > EPS_W * env.max(1.0) {
                    v(
                        out,
                        diag::ENVELOPE,
                        format!(
                            "epoch {epoch}: allocated {allocated_w} W + pool {pool_w} W does \
                             not sum to the envelope {env} W"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

// --- faults --------------------------------------------------------------

#[derive(Debug, Default)]
struct FaultChecker {
    /// (sync, node, tag) of every recovery in the open evidence window
    /// (1-based sync, matching SyncStart/SyncEnd).
    recoveries: BTreeSet<(u64, usize, Tag)>,
    /// Intervals (1-based) in the window with at least one cap request.
    cap_intervals: BTreeSet<u64>,
    /// (interval, node) pairs in the window with an accepted sample.
    samples: BTreeSet<(u64, usize)>,
    /// Faults awaiting their evidence interval's close: (sync, node, tag).
    pending: Vec<(u64, usize, Tag)>,
    open: Option<u64>,
    out: Vec<Violation>,
}

/// Judge one fault against the currently-held evidence.
fn judge_fault(
    out: &mut Vec<Violation>,
    recoveries: &BTreeSet<(u64, usize, Tag)>,
    cap_intervals: &BTreeSet<u64>,
    samples: &BTreeSet<(u64, usize)>,
    s: u64,
    n: usize,
    tag: &str,
) {
    let interval = s;
    let has = |t: &'static str| recoveries.contains(&(s, n, Tag::Borrowed(t)));
    let has_any_node = |t: &str| recoveries.iter().any(|(rs, _, rt)| *rs == s && rt == t);
    let ok = match tag {
        // A crash always excludes the node.
        "node_crash" => has("node_excluded"),
        // A dead monitor is re-elected — unless its node crashed in
        // the same interval and got excluded instead.
        "monitor_death" => has("monitor_reelected") || has("node_excluded"),
        // Corrupt samples must be rejected by the plausibility gate.
        "sample_nan" | "sample_dropout" => has("sample_rejected"),
        // A spike is rejected when it leaves the plausible range; a
        // small spike factor may keep the sample plausible, in which
        // case the sample must actually have been accepted.
        "sample_spike" => has("sample_rejected") || samples.contains(&(interval, n)),
        // A failed cap write is retried — but only if a cap write was
        // attempted at all in that interval (the controller may have
        // held).
        "rapl_write_error" => has("cap_write_retried") || !cap_intervals.contains(&interval),
        // A timed-out collective is retried, or the exchange is
        // abandoned and the previous allocation held.
        "collective_timeout" => {
            has_any_node("collective_retried") || has_any_node("allocation_held")
        }
        // Perturbations the stack absorbs without a discrete action.
        "straggler" | "rapl_stuck" | "rapl_delayed" | "message_loss" => true,
        other => {
            v(out, diag::FAULTS, format!("unknown fault tag \"{other}\" in sync {s}"));
            true
        }
    };
    if !ok {
        v(
            out,
            diag::FAULTS,
            format!(
                "fault \"{tag}\" on node {n} in sync {s} has no matching \
                 graceful-degradation action"
            ),
        );
    }
}

impl FaultChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        match &ev.ev {
            Event::SyncStart { sync } => self.open = Some(*sync),
            Event::SyncEnd { sync, .. } => {
                self.open = None;
                let k = *sync;
                // Interval k just closed: every fault landing in sync ≤ k
                // has its full evidence window in hand — judge it now, then
                // prune the evidence the remaining (later) faults can no
                // longer need.
                let pending = std::mem::take(&mut self.pending);
                for (s, n, tag) in pending {
                    if s <= k {
                        judge_fault(
                            &mut self.out,
                            &self.recoveries,
                            &self.cap_intervals,
                            &self.samples,
                            s,
                            n,
                            &tag,
                        );
                    } else {
                        self.pending.push((s, n, tag));
                    }
                }
                self.recoveries.retain(|(rs, _, _)| *rs > k);
                self.samples.retain(|(ri, _)| *ri > k);
                self.cap_intervals.retain(|ri| *ri > k);
            }
            Event::CapRequest { .. } => {
                if let Some(k) = self.open {
                    self.cap_intervals.insert(k);
                }
            }
            Event::Sample { node, .. } => {
                if let Some(k) = self.open {
                    self.samples.insert((k, *node));
                }
            }
            Event::Recovery { sync, node, tag } => {
                self.recoveries.insert((*sync, *node, tag.clone()));
            }
            Event::Fault { sync, node, tag } => {
                self.pending.push((*sync, *node, tag.clone()));
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for (s, n, tag) in pending {
            judge_fault(
                &mut self.out,
                &self.recoveries,
                &self.cap_intervals,
                &self.samples,
                s,
                n,
                &tag,
            );
        }
    }
}

// --- fleet ---------------------------------------------------------------

#[derive(Debug, Default)]
struct JobLedger {
    arrived: bool,
    dispatched_open: bool,
    dispatches: u64,
    retries: u64,
    last_backoff: u64,
    last_machine: Option<usize>,
    terminal: bool,
}

#[derive(Debug, Default)]
struct FleetChecker {
    /// (envelope, retry_base, retry_cap, max_retries) from `fleet_start`.
    /// Until the header arrives every fleet event is ignored (a
    /// single-machine trace carries `job_completed` with no fleet
    /// protocol; real fleet traces emit the header first).
    params: Option<(f64, u64, u64, u64)>,
    jobs: BTreeMap<usize, JobLedger>,
    down: BTreeMap<usize, bool>,
    /// One renormalization group = consecutive envelope_renorm events with
    /// the same epoch; closed by any other event kind or an epoch change.
    renorm: Option<(u64, f64, f64)>,
    out: Vec<Violation>,
}

impl FleetChecker {
    fn close_renorm(&mut self) {
        let Some((fleet_envelope_w, ..)) = self.params else { return };
        if let Some((epoch, share_sum, cap_sum)) = self.renorm.take() {
            let expected = fleet_envelope_w.min(cap_sum);
            if (share_sum - expected).abs() > EPS_W * expected.max(1.0) {
                v(
                    &mut self.out,
                    diag::FLEET,
                    format!(
                        "renorm at epoch {epoch}: shares sum to {share_sum} W, expected \
                         min(envelope {fleet_envelope_w} W, member caps {cap_sum} W) = {expected} W"
                    ),
                );
            }
        }
    }

    fn feed(&mut self, ev: &TraceEvent) {
        if self.params.is_none() {
            if let Event::FleetStart {
                envelope_w,
                retry_base_epochs,
                retry_cap_epochs,
                max_retries,
                ..
            } = &ev.ev
            {
                self.params =
                    Some((*envelope_w, *retry_base_epochs, *retry_cap_epochs, *max_retries));
            }
            return;
        }
        let (_, _, retry_cap, max_retries) = self.params.expect("header seen");
        match &ev.ev {
            Event::EnvelopeRenorm { epoch, .. } => {
                if self.renorm.as_ref().is_some_and(|(e, _, _)| e != epoch) {
                    self.close_renorm();
                }
            }
            _ => self.close_renorm(),
        }
        let out = &mut self.out;
        match &ev.ev {
            Event::MachineDown { machine, epoch } => {
                let was_down = self.down.insert(*machine, true) == Some(true);
                if was_down {
                    v(
                        out,
                        diag::FLEET,
                        format!("machine {machine} declared down at epoch {epoch} while down"),
                    );
                }
            }
            Event::MachineUp { machine, epoch } => {
                let was_down = self.down.insert(*machine, false) == Some(true);
                if !was_down {
                    v(
                        out,
                        diag::FLEET,
                        format!("machine {machine} declared up at epoch {epoch} while up"),
                    );
                }
            }
            Event::EnvelopeRenorm { epoch, machine, share_w, cap_w } => {
                let (_, share_sum, cap_sum) = self.renorm.get_or_insert((*epoch, 0.0, 0.0));
                *share_sum += share_w;
                *cap_sum += cap_w;
                if *share_w > cap_w + EPS_W {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "renorm at epoch {epoch}: machine {machine} share {share_w} W \
                             exceeds its cap {cap_w} W"
                        ),
                    );
                }
                if self.down.get(machine).copied().unwrap_or(false) {
                    v(
                        out,
                        diag::FLEET,
                        format!("renorm at epoch {epoch}: down machine {machine} got a share"),
                    );
                }
            }
            Event::JobArrived { job } => {
                self.jobs.entry(*job).or_default().arrived = true;
            }
            Event::JobDispatched { job, machine } => {
                let j = self.jobs.entry(*job).or_default();
                if !j.arrived {
                    v(out, diag::FLEET, format!("job {job} dispatched before arrival"));
                }
                if j.terminal {
                    v(out, diag::FLEET, format!("terminal job {job} dispatched again (zombie)"));
                }
                if j.dispatched_open {
                    v(
                        out,
                        diag::FLEET,
                        format!("job {job} dispatched to machine {machine} while already running"),
                    );
                }
                if j.dispatches != j.retries {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job}: dispatch {} not pair-matched with retries ({})",
                            j.dispatches + 1,
                            j.retries
                        ),
                    );
                }
                if self.down.get(machine).copied().unwrap_or(false) {
                    v(out, diag::FLEET, format!("job {job} dispatched to down machine {machine}"));
                }
                let j = self.jobs.entry(*job).or_default();
                j.dispatched_open = true;
                j.dispatches += 1;
                j.last_machine = Some(*machine);
            }
            Event::JobRetry { job, attempt, backoff_epochs } => {
                let j = self.jobs.entry(*job).or_default();
                if !j.dispatched_open {
                    v(out, diag::FLEET, format!("job {job} retried without a live dispatch"));
                }
                j.dispatched_open = false;
                if *attempt != j.retries + 1 {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job}: retry attempt {attempt} out of sequence (expected {})",
                            j.retries + 1
                        ),
                    );
                }
                if *attempt > max_retries {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job}: retry attempt {attempt} exceeds the budget {max_retries}"
                        ),
                    );
                }
                if *backoff_epochs < j.last_backoff {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job}: backoff {backoff_epochs} epochs shrank from {}",
                            j.last_backoff
                        ),
                    );
                }
                if *backoff_epochs > retry_cap {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job}: backoff {backoff_epochs} epochs exceeds the ceiling \
                             {retry_cap}"
                        ),
                    );
                }
                let j = self.jobs.entry(*job).or_default();
                j.retries = *attempt;
                j.last_backoff = *backoff_epochs;
            }
            Event::JobMigrated { job, from_machine, to_machine } => {
                let j = self.jobs.entry(*job).or_default();
                if j.last_machine != Some(*from_machine) {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job} migrated from machine {from_machine} but last ran on \
                             machine {:?}",
                            j.last_machine
                        ),
                    );
                }
                if from_machine == to_machine {
                    v(out, diag::FLEET, format!("job {job} migrated to the same machine"));
                }
            }
            Event::JobCompleted { job, .. } => {
                let j = self.jobs.entry(*job).or_default();
                // Single-machine traces also carry job_completed; in a
                // fleet trace completion must close a live dispatch.
                if !j.dispatched_open {
                    v(out, diag::FLEET, format!("job {job} completed without a live dispatch"));
                }
                if j.terminal {
                    v(out, diag::FLEET, format!("job {job} completed twice"));
                }
                let j = self.jobs.entry(*job).or_default();
                j.dispatched_open = false;
                j.terminal = true;
            }
            Event::JobFailed { job, attempts } => {
                let j = self.jobs.entry(*job).or_default();
                if j.terminal {
                    v(out, diag::FLEET, format!("job {job} reported failed after terminal state"));
                }
                if *attempts != j.dispatches {
                    v(
                        out,
                        diag::FLEET,
                        format!(
                            "job {job} failed after {attempts} attempts but {} dispatches \
                             were traced",
                            j.dispatches
                        ),
                    );
                }
                let j = self.jobs.entry(*job).or_default();
                j.dispatched_open = false;
                j.terminal = true;
            }
            _ => {}
        }
    }

    fn finish(&mut self) {
        if self.params.is_none() {
            return;
        }
        self.close_renorm();
        for (job, j) in &self.jobs {
            if j.arrived && !j.terminal {
                v(
                    &mut self.out,
                    diag::FLEET,
                    format!("job {job} lost: arrived but neither completed nor reported failed"),
                );
            }
        }
    }
}

// --- lifecycle -----------------------------------------------------------

#[derive(Debug, Default)]
struct JobState {
    arrived: bool,
    running: bool,
    terminal: bool,
}

#[derive(Debug, Default)]
struct LifecycleChecker {
    /// Set by `machine_start`; fleet and in-situ traces never activate.
    active: bool,
    jobs: BTreeMap<usize, JobState>,
    out: Vec<Violation>,
}

impl LifecycleChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        if let Event::MachineStart { .. } = &ev.ev {
            self.active = true;
            return;
        }
        if !self.active {
            return;
        }
        let out = &mut self.out;
        match &ev.ev {
            Event::JobArrived { job } => {
                self.jobs.entry(*job).or_default().arrived = true;
            }
            Event::JobStarted { job, .. } => {
                let j = self.jobs.entry(*job).or_default();
                if !j.arrived {
                    v(out, diag::LIFECYCLE, format!("job {job} started without arriving"));
                }
                if j.terminal {
                    v(out, diag::LIFECYCLE, format!("job {job} started after terminal state"));
                }
                if j.running {
                    v(out, diag::LIFECYCLE, format!("job {job} started while already running"));
                }
                let j = self.jobs.entry(*job).or_default();
                j.running = true;
            }
            Event::JobCompleted { job, .. } => {
                let j = self.jobs.entry(*job).or_default();
                if !j.running {
                    v(out, diag::LIFECYCLE, format!("job {job} completed without running"));
                }
                if j.terminal {
                    v(out, diag::LIFECYCLE, format!("job {job} completed after terminal state"));
                }
                let j = self.jobs.entry(*job).or_default();
                j.running = false;
                j.terminal = true;
            }
            Event::JobKilled { job } => {
                let j = self.jobs.entry(*job).or_default();
                // Killing a queued, never-started job is legal (admission
                // kills on machine teardown).
                if !j.arrived {
                    v(out, diag::LIFECYCLE, format!("job {job} killed without arriving"));
                }
                if j.terminal {
                    v(out, diag::LIFECYCLE, format!("job {job} killed after terminal state"));
                }
                let j = self.jobs.entry(*job).or_default();
                j.running = false;
                j.terminal = true;
            }
            _ => {}
        }
    }
}

// --- halt (advisory) -----------------------------------------------------

#[derive(Debug, Default)]
struct HaltChecker {
    run_start: bool,
    last_sync: Option<u64>,
    run_end: bool,
    out: Vec<Violation>,
}

impl HaltChecker {
    fn feed(&mut self, ev: &TraceEvent) {
        match &ev.ev {
            Event::RunStart { .. } => self.run_start = true,
            Event::SyncStart { sync } => self.last_sync = Some(*sync),
            Event::RunEnd { .. } => self.run_end = true,
            _ => {}
        }
    }

    fn finish(&mut self) {
        if let (true, Some(k), false) = (self.run_start, self.last_sync, self.run_end) {
            v(
                &mut self.out,
                diag::HALT,
                format!(
                    "run halted: interval {k} is the last opened and run_end was never \
                     recorded (legal under partition death, otherwise a lost epilogue)"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimTime;
    use obs::DecisionInfo;

    fn ev(t_ns: u64, ev: Event) -> TraceEvent {
        TraceEvent { t: SimTime::from_nanos(t_ns), ev }
    }

    /// Drive one private checker alone over a trace, flush it, and return
    /// its findings.
    macro_rules! run_checker {
        ($checker:ty, $trace:expr) => {{
            let mut c = <$checker>::default();
            for e in &$trace.events {
                c.feed(e);
            }
            c.finish();
            c.out
        }};
    }

    fn run_start(budget_w: f64) -> TraceEvent {
        ev(
            0,
            Event::RunStart {
                sim_nodes: 12,
                analysis_nodes: 4,
                budget_w,
                min_cap_w: 98.0,
                max_cap_w: 215.0,
                actuation_ns: 10_000_000,
            },
        )
    }

    fn decision(sync: u64, sim_w: f64, ana_w: f64) -> TraceEvent {
        ev(
            10,
            Event::Decision(Box::new(DecisionInfo {
                sync,
                sim_nodes: 12,
                analysis_nodes: 4,
                alpha_sim: 1.0,
                alpha_analysis: 1.0,
                p_opt_sim_w: sim_w * 12.0,
                p_opt_analysis_w: ana_w * 4.0,
                blend_sim_w: sim_w * 12.0,
                blend_analysis_w: ana_w * 4.0,
                sim_node_w: sim_w,
                analysis_node_w: ana_w,
                clamped: false,
            })),
        )
    }

    #[test]
    fn clean_minimal_trace_passes() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(0, Event::SyncStart { sync: 1 }),
                ev(0, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 5 }),
                ev(5, Event::Wait { node: 0, start_ns: 5, end_ns: 8 }),
                decision(0, 110.0, 110.0),
                ev(10, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
                ev(10, Event::SyncEnergy { sync: 1, energy_j: 42.0 }),
                ev(10, Event::NodeEnergy { node: 0, energy_j: 42.0 }),
                ev(10, Event::RunEnd { total_time_s: 1e-8, total_energy_j: 42.0 }),
            ],
        };
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn backwards_clock_is_flagged() {
        let trace = Trace {
            events: vec![
                ev(10, Event::SyncStart { sync: 1 }),
                ev(5, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "clock"));
    }

    #[test]
    fn span_events_may_carry_past_times() {
        let trace = Trace {
            events: vec![
                ev(10, Event::SyncStart { sync: 1 }),
                ev(90, Event::Phase { node: 0, kind: "force".into(), start_ns: 10, end_ns: 90 }),
                ev(95, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
            ],
        };
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn out_of_order_sync_is_flagged() {
        let trace = Trace {
            events: vec![
                ev(0, Event::SyncStart { sync: 2 }),
                ev(1, Event::SyncEnd { sync: 2, overhead_s: 0.0 }),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "sync"));
    }

    #[test]
    fn trailing_open_sync_is_a_legal_halt() {
        let trace = Trace {
            events: vec![
                ev(0, Event::SyncStart { sync: 1 }),
                ev(1, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
                ev(2, Event::SyncStart { sync: 2 }),
            ],
        };
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn overlapping_node_spans_are_flagged() {
        let trace = Trace {
            events: vec![
                ev(0, Event::Phase { node: 3, kind: "force".into(), start_ns: 0, end_ns: 10 }),
                ev(0, Event::Phase { node: 3, kind: "neigh".into(), start_ns: 5, end_ns: 15 }),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "spans"));
    }

    #[test]
    fn span_overrunning_its_interval_is_flagged() {
        let trace = Trace {
            events: vec![
                ev(0, Event::SyncStart { sync: 1 }),
                ev(9, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 99 }),
                ev(10, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "spans"));
    }

    #[test]
    fn over_budget_decision_is_flagged() {
        let trace = Trace { events: vec![run_start(1760.0), decision(0, 215.0, 98.0)] };
        // 12 x 215 + 4 x 98 = 2972 > 1760.
        let violations = check_all(&trace);
        assert!(violations.iter().any(|x| x.check() == "budget"), "{violations:?}");
    }

    #[test]
    fn floor_pinned_decision_under_infeasible_budget_passes() {
        let trace = Trace { events: vec![run_start(100.0), decision(0, 98.0, 98.0)] };
        // 16 x 98 = 1568 > 100, but every cap is pinned at the floor.
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn renormalized_budget_is_tracked() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(5, Event::BudgetRenormalized { budget_w: 1000.0 }),
                decision(1, 110.0, 110.0), // 12x110 + 4x110 = 1760 > 1000
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "budget"));
    }

    #[test]
    fn unclamped_grant_is_flagged() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(
                    0,
                    Event::CapRequest {
                        node: 2,
                        requested_w: 120.0,
                        granted_w: 130.0,
                        effective_ns: 0,
                    },
                ),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "cap_range"));
    }

    #[test]
    fn tdp_grant_from_uncapped_domain_passes() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(
                    0,
                    Event::CapRequest {
                        node: 2,
                        requested_w: 120.0,
                        granted_w: 215.0,
                        effective_ns: 0,
                    },
                ),
            ],
        };
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn too_fast_actuation_is_flagged() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(
                    1_000,
                    Event::CapRequest {
                        node: 0,
                        requested_w: 120.0,
                        granted_w: 120.0,
                        effective_ns: 5_000, // request + 4000 ns < 10 ms latency
                    },
                ),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "actuation"));
    }

    #[test]
    fn energy_identity_violation_is_flagged() {
        let trace = Trace {
            events: vec![
                ev(0, Event::SyncEnergy { sync: 1, energy_j: 10.0 }),
                ev(1, Event::RunEnd { total_time_s: 1.0, total_energy_j: 25.0 }),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "energy"));
    }

    #[test]
    fn envelope_leak_is_flagged() {
        let trace = Trace {
            events: vec![
                ev(0, Event::MachineStart { nodes: 16, envelope_w: 1760.0 }),
                ev(0, Event::MachineBudget { epoch: 0, allocated_w: 1000.0, pool_w: 500.0 }),
            ],
        };
        assert!(check_all(&trace).iter().any(|x| x.check() == "envelope"));
    }

    #[test]
    fn unrecovered_crash_is_flagged_and_paired_crash_passes() {
        let bad = Trace {
            events: vec![ev(0, Event::Fault { sync: 2, node: 5, tag: "node_crash".into() })],
        };
        assert!(check_all(&bad).iter().any(|x| x.check() == "faults"));
        let good = Trace {
            events: vec![
                ev(0, Event::Fault { sync: 2, node: 5, tag: "node_crash".into() }),
                ev(0, Event::Recovery { sync: 2, node: 5, tag: "node_excluded".into() }),
            ],
        };
        assert_eq!(check_all(&good), Vec::new());
    }

    fn fleet_start() -> TraceEvent {
        ev(
            0,
            Event::FleetStart {
                machines: 2,
                envelope_w: 1000.0,
                retry_base_epochs: 1,
                retry_cap_epochs: 8,
                max_retries: 3,
            },
        )
    }

    /// A clean fleet lifecycle: dispatch, machine loss, retry, migration,
    /// re-dispatch, completion — zero violations.
    #[test]
    fn clean_fleet_recovery_story_passes() {
        let trace = Trace {
            events: vec![
                fleet_start(),
                ev(0, Event::EnvelopeRenorm { epoch: 0, machine: 0, share_w: 500.0, cap_w: 600.0 }),
                ev(0, Event::EnvelopeRenorm { epoch: 0, machine: 1, share_w: 500.0, cap_w: 600.0 }),
                ev(0, Event::JobArrived { job: 0 }),
                ev(0, Event::JobDispatched { job: 0, machine: 1 }),
                ev(5, Event::MachineDown { machine: 1, epoch: 3 }),
                ev(5, Event::JobRetry { job: 0, attempt: 1, backoff_epochs: 1 }),
                ev(5, Event::EnvelopeRenorm { epoch: 3, machine: 0, share_w: 600.0, cap_w: 600.0 }),
                ev(9, Event::JobMigrated { job: 0, from_machine: 1, to_machine: 0 }),
                ev(9, Event::JobDispatched { job: 0, machine: 0 }),
                ev(20, Event::JobCompleted { job: 0, time_s: 12.0 }),
            ],
        };
        let out = run_checker!(FleetChecker, trace);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn fleet_checks_are_gated_on_the_header() {
        // Without fleet_start the same events are ignored (single-machine
        // traces carry job_completed with no fleet dispatch protocol).
        let trace = Trace { events: vec![ev(0, Event::JobCompleted { job: 0, time_s: 1.0 })] };
        let out = run_checker!(FleetChecker, trace);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn lost_job_is_flagged() {
        let trace = Trace {
            events: vec![
                fleet_start(),
                ev(0, Event::JobArrived { job: 7 }),
                ev(0, Event::JobDispatched { job: 7, machine: 0 }),
            ],
        };
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.check() == "fleet" && x.detail.contains("lost")), "{out:?}");
    }

    #[test]
    fn double_run_is_flagged() {
        let trace = Trace {
            events: vec![
                fleet_start(),
                ev(0, Event::JobArrived { job: 0 }),
                ev(0, Event::JobDispatched { job: 0, machine: 0 }),
                ev(1, Event::JobDispatched { job: 0, machine: 1 }),
                ev(2, Event::JobCompleted { job: 0, time_s: 1.0 }),
            ],
        };
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("already running")), "{out:?}");
    }

    #[test]
    fn zombie_resubmit_after_failure_is_flagged() {
        let trace = Trace {
            events: vec![
                fleet_start(),
                ev(0, Event::JobArrived { job: 0 }),
                ev(0, Event::JobDispatched { job: 0, machine: 0 }),
                ev(1, Event::JobFailed { job: 0, attempts: 1 }),
                ev(2, Event::JobDispatched { job: 0, machine: 1 }),
                ev(3, Event::JobCompleted { job: 0, time_s: 1.0 }),
            ],
        };
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("zombie")), "{out:?}");
    }

    #[test]
    fn retry_schedule_violations_are_flagged() {
        let base = vec![
            fleet_start(),
            ev(0, Event::JobArrived { job: 0 }),
            ev(0, Event::JobDispatched { job: 0, machine: 0 }),
        ];
        // Out-of-sequence attempt number.
        let mut events = base.clone();
        events.push(ev(1, Event::JobRetry { job: 0, attempt: 2, backoff_epochs: 1 }));
        events.push(ev(9, Event::JobFailed { job: 0, attempts: 1 }));
        let out = run_checker!(FleetChecker, Trace { events });
        assert!(out.iter().any(|x| x.detail.contains("out of sequence")), "{out:?}");
        // Backoff above the configured ceiling.
        let mut events = base.clone();
        events.push(ev(1, Event::JobRetry { job: 0, attempt: 1, backoff_epochs: 99 }));
        events.push(ev(9, Event::JobFailed { job: 0, attempts: 1 }));
        let out = run_checker!(FleetChecker, Trace { events });
        assert!(out.iter().any(|x| x.detail.contains("ceiling")), "{out:?}");
    }

    #[test]
    fn fleet_envelope_leak_is_flagged() {
        let trace = Trace {
            events: vec![
                fleet_start(),
                // Two members capped at 600 W each: shares must sum to
                // min(1000, 1200) = 1000, not 900.
                ev(0, Event::EnvelopeRenorm { epoch: 0, machine: 0, share_w: 450.0, cap_w: 600.0 }),
                ev(0, Event::EnvelopeRenorm { epoch: 0, machine: 1, share_w: 450.0, cap_w: 600.0 }),
            ],
        };
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("shares sum")), "{out:?}");
        assert!(out.iter().all(|x| x.code_str() == "AUDIT0010"));
    }

    #[test]
    fn down_up_alternation_is_enforced() {
        let trace = Trace {
            events: vec![
                fleet_start(),
                ev(0, Event::MachineDown { machine: 0, epoch: 1 }),
                ev(1, Event::MachineDown { machine: 0, epoch: 2 }),
                ev(2, Event::MachineUp { machine: 1, epoch: 3 }),
            ],
        };
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("while down")), "{out:?}");
        assert!(out.iter().any(|x| x.detail.contains("while up")), "{out:?}");
    }

    #[test]
    fn write_error_without_cap_traffic_passes() {
        let trace = Trace {
            events: vec![
                ev(0, Event::SyncStart { sync: 3 }),
                ev(1, Event::Fault { sync: 3, node: 1, tag: "rapl_write_error".into() }),
                ev(2, Event::SyncEnd { sync: 3, overhead_s: 0.0 }),
            ],
        };
        let out = run_checker!(FaultChecker, trace);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn spike_with_accepted_sample_passes() {
        let trace = Trace {
            events: vec![
                ev(0, Event::SyncStart { sync: 3 }),
                ev(1, Event::Fault { sync: 3, node: 1, tag: "sample_spike".into() }),
                ev(
                    2,
                    Event::Sample {
                        node: 1,
                        role: "sim".into(),
                        time_s: 1.0,
                        power_w: 900.0,
                        cap_w: 110.0,
                    },
                ),
                ev(3, Event::SyncEnd { sync: 3, overhead_s: 0.0 }),
            ],
        };
        let out = run_checker!(FaultChecker, trace);
        assert_eq!(out, Vec::new());
    }

    fn machine_start() -> TraceEvent {
        ev(0, Event::MachineStart { nodes: 16, envelope_w: 1760.0 })
    }

    #[test]
    fn clean_job_lifecycle_passes() {
        let trace = Trace {
            events: vec![
                machine_start(),
                ev(0, Event::JobArrived { job: 0 }),
                ev(1, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
                ev(9, Event::JobCompleted { job: 0, time_s: 1.0 }),
                ev(9, Event::JobArrived { job: 1 }),
                ev(10, Event::JobKilled { job: 1 }), // queued kill: legal
            ],
        };
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn lifecycle_protocol_breaks_are_flagged() {
        // Started without arriving.
        let t1 = Trace {
            events: vec![
                machine_start(),
                ev(1, Event::JobStarted { job: 3, nodes: 8, budget_w: 880.0 }),
            ],
        };
        let got = check_all(&t1);
        assert!(
            got.iter()
                .any(|x| x.code_str() == "AUDIT0011" && x.detail.contains("without arriving")),
            "{got:?}"
        );
        // Completed twice (second completion is after a terminal state).
        let t2 = Trace {
            events: vec![
                machine_start(),
                ev(0, Event::JobArrived { job: 0 }),
                ev(1, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
                ev(2, Event::JobCompleted { job: 0, time_s: 1.0 }),
                ev(3, Event::JobCompleted { job: 0, time_s: 1.0 }),
            ],
        };
        let got = check_all(&t2);
        assert!(
            got.iter().any(|x| x.check() == "lifecycle" && x.detail.contains("terminal")),
            "{got:?}"
        );
        // Started while already running.
        let t3 = Trace {
            events: vec![
                machine_start(),
                ev(0, Event::JobArrived { job: 0 }),
                ev(1, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
                ev(2, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
            ],
        };
        let got = check_all(&t3);
        assert!(
            got.iter().any(|x| x.check() == "lifecycle" && x.detail.contains("already running")),
            "{got:?}"
        );
    }

    #[test]
    fn lifecycle_is_gated_on_the_machine_header() {
        // Fleet traces carry job events with no machine_start; the
        // lifecycle protocol does not apply there.
        let trace =
            Trace { events: vec![ev(1, Event::JobStarted { job: 3, nodes: 8, budget_w: 880.0 })] };
        assert_eq!(check_all(&trace), Vec::new());
    }

    #[test]
    fn halted_run_with_header_draws_the_advisory() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(0, Event::SyncStart { sync: 1 }),
                ev(1, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
                ev(2, Event::SyncStart { sync: 2 }),
                // no run_end: halted mid-interval
            ],
        };
        let got = check_all(&trace);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].code_str(), "AUDIT0012");
        assert_eq!(got[0].severity(), Severity::Warning);
        assert!(got[0].detail.contains("interval 2"), "{got:?}");
    }

    /// The incremental battery is insensitive to how the stream is
    /// chunked: feeding event-by-event equals the batch wrapper.
    #[test]
    fn streaming_feed_matches_batch_battery() {
        let trace = Trace {
            events: vec![
                run_start(1760.0),
                ev(0, Event::SyncStart { sync: 2 }), // misnumbered
                ev(9, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 99 }), // overruns
                decision(1, 215.0, 215.0), // over budget
                ev(10, Event::SyncEnd { sync: 2, overhead_s: 0.0 }),
                ev(11, Event::Fault { sync: 1, node: 5, tag: "node_crash".into() }),
            ],
        };
        let batch = check_all(&trace);
        let mut checker = StreamChecker::default();
        for e in &trace.events {
            checker.feed(e);
        }
        let streamed = checker.finish();
        assert_eq!(batch, streamed);
        assert!(batch.iter().any(|x| x.check() == "sync"));
        assert!(batch.iter().any(|x| x.check() == "spans"));
        assert!(batch.iter().any(|x| x.check() == "budget"));
        assert!(batch.iter().any(|x| x.check() == "faults"));
    }

    #[test]
    fn errors_so_far_counts_only_errors() {
        let mut checker = StreamChecker::default();
        checker.feed(&run_start(1760.0));
        checker.feed(&ev(0, Event::SyncStart { sync: 2 })); // misnumbered
        assert_eq!(checker.errors_so_far(), 1);
        // The halt advisory only lands at finish and is a warning.
        let out = checker.finish();
        assert!(out.iter().any(|x| x.severity() == Severity::Warning));
        assert_eq!(out.iter().filter(|x| x.severity() == Severity::Error).count(), 1);
    }
}
