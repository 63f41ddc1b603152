//! The invariant battery: structural and physical consistency checks over
//! one trace, fed one event at a time.
//!
//! Every check judges each event against the run's protocol state as it
//! stood before the event ([`Ledger`]: headers, budget in force, open
//! interval, `run_end`, renormalization group, jobs, machines down), then
//! the ledger applies the event. A check keeps only what belongs to it
//! alone: the clock's high-water mark, each node's last span end and the
//! open interval's spans, the energy sums, and the fault-evidence window.
//! All of it is bounded by the run's *shape* — open spans, nodes, live
//! jobs — never by its length, so the battery audits a multi-gigabyte
//! trace in constant memory, whether the events arrive live, from a
//! tracer's buffer or from a file.
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
//!   partition sizes stay within the budget in force (renormalizations
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
//!   action got one. The evidence for the fault at plan ordinal `s` lives
//!   in interval `s + 1`, so each fault is judged when that interval
//!   closes (or at end of stream), and the closed interval's evidence is
//!   then pruned — the lookback window is one interval.
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

use crate::column::{column_len, NodeColumn};
use crate::diag::{self, DiagCode, Severity, Violation};
use crate::ledger::{Ledger, RenormGroup};
use obs::{Event, Tag, TraceEvent};
use std::collections::BTreeSet;

/// Absolute slack for watt-level comparisons (budget/cap arithmetic is
/// exact modulo float association).
const EPS_W: f64 = 1e-6;
/// Relative tolerance for energy identities (sums over many intervals
/// accumulate association error only).
const ENERGY_REL_TOL: f64 = 1e-6;

fn v(out: &mut Vec<Violation>, code: DiagCode, detail: String) {
    out.push(Violation::new(code, detail));
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

/// The battery and the ledger it reads. [`judge`](StreamChecker::judge)
/// each event, then apply it to the ledger; [`finish`](StreamChecker::finish)
/// returns the findings in battery order (clock, sync, spans, budget,
/// caps, energy, envelope, faults, fleet, lifecycle, halt), each check's
/// in event order.
#[derive(Debug, Default)]
pub(crate) struct StreamChecker {
    /// The run's protocol state, which every check reads.
    pub(crate) ledger: Ledger,
    /// The clock's high-water mark, ns.
    clock_ns: u64,
    spans: Spans,
    energy: Energy,
    faults: Faults,
    /// Findings per check, battery order.
    out: [Vec<Violation>; 11],
    /// Error-severity findings in `out[i][..counted[i]]`: the findings are
    /// counted once each, as the health rows ask.
    errors: u64,
    counted: [usize; 11],
}

impl StreamChecker {
    /// Judge one event against the ledger as it stands; the caller then
    /// applies the event. Returns the renormalization group the event
    /// closed (already judged by the fleet check).
    pub(crate) fn judge(&mut self, ev: &TraceEvent) -> Option<RenormGroup> {
        let closed = self.ledger.close_renorm(&ev.ev);
        let l = &self.ledger;
        let [clock, sync, spans, budget, caps, energy, envelope, faults, fleet, lifecycle, _] =
            &mut self.out;
        check_clock(&mut self.clock_ns, l.events, ev, clock);
        check_sync(l, ev, sync);
        self.spans.feed(l, ev, spans);
        check_budget(l, ev, budget);
        check_caps(l, ev, caps);
        self.energy.feed(ev, energy);
        check_envelope(l, ev, envelope);
        self.faults.feed(l, ev, faults);
        check_fleet(l, closed.as_ref(), ev, fleet);
        check_lifecycle(l, ev, lifecycle);
        closed
    }

    /// Judge one event, then apply it.
    #[cfg(test)]
    pub(crate) fn feed(&mut self, ev: &TraceEvent) {
        self.judge(ev);
        self.ledger.apply(ev);
    }

    /// Error-severity findings so far (advisories excluded). Checks that
    /// only conclude at end of stream (energy identities, the lost-job
    /// scan) are not yet reflected — this is the live count a health
    /// snapshot quotes mid-run. Each finding is counted once, on the first
    /// call after it was found, so a row costs O(new findings), not
    /// O(all findings).
    pub(crate) fn errors_so_far(&mut self) -> u64 {
        for (out, counted) in self.out.iter().zip(&mut self.counted) {
            let new = out[*counted..].iter().filter(|x| x.severity() == Severity::Error);
            self.errors += new.count() as u64;
            *counted = out.len();
        }
        self.errors
    }

    /// Run the end-of-stream checks; every finding, per check.
    fn close(mut self) -> [Vec<Violation>; 11] {
        let closed = self.ledger.renorm.take();
        let l = &self.ledger;
        let [.., energy, _, faults, fleet, _, halt] = &mut self.out;
        self.energy.finish(l, energy);
        self.faults.finish(faults);
        if let Some(f) = l.fleet {
            if let Some(g) = &closed {
                judge_renorm(f.envelope_w, g, fleet);
            }
            for (job, j) in &l.jobs {
                if j.arrived && !j.terminal {
                    v(
                        fleet,
                        diag::FLEET,
                        format!(
                            "job {job} lost: arrived but neither completed nor reported failed"
                        ),
                    );
                }
            }
        }
        if let (Some(_), Some(k), None) = (l.run, l.last_opened, l.run_end) {
            v(
                halt,
                diag::HALT,
                format!(
                    "run halted: interval {k} is the last opened and run_end was never \
                     recorded (legal under partition death, otherwise a lost epilogue)"
                ),
            );
        }
        self.out
    }

    /// Run the end-of-stream checks; every finding, battery order.
    pub(crate) fn finish(self) -> Vec<Violation> {
        self.close().into_iter().flatten().collect()
    }
}

/// One check's findings from the whole battery: how the unit tests drive
/// a check alone (`Only<7>` is faults, `Only<8>` fleet).
#[cfg(test)]
#[derive(Debug, Default)]
struct Only<const CHECK: usize> {
    battery: StreamChecker,
    out: Vec<Violation>,
}

#[cfg(test)]
impl<const CHECK: usize> Only<CHECK> {
    fn feed(&mut self, ev: &TraceEvent) {
        self.battery.feed(ev);
    }

    fn finish(&mut self) {
        self.out = std::mem::take(&mut std::mem::take(&mut self.battery).close()[CHECK]);
    }
}

#[cfg(test)]
type FaultChecker = Only<7>;
#[cfg(test)]
type FleetChecker = Only<8>;

// --- clock ---------------------------------------------------------------

fn check_clock(last: &mut u64, i: u64, ev: &TraceEvent, out: &mut Vec<Violation>) {
    if rides_shared_clock(&ev.ev) {
        if ev.t.as_nanos() < *last {
            v(
                out,
                diag::CLOCK,
                format!(
                    "event {} ({}) at t={}ns precedes earlier stamp {}ns",
                    i,
                    ev.ev.tag(),
                    ev.t.as_nanos(),
                    last
                ),
            );
        }
        *last = (*last).max(ev.t.as_nanos());
    }
}

// --- sync ----------------------------------------------------------------

fn check_sync(l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
    // Reported once, on the event right after run_end.
    if l.run_end.is_some_and(|r| r.event + 1 == l.events) {
        v(out, diag::SYNC, format!("event ({}) after run_end", ev.ev.tag()));
    }
    let open = l.open.map(|(k, _)| k);
    match &ev.ev {
        Event::SyncStart { sync } => {
            if let Some(k) = open {
                v(out, diag::SYNC, format!("sync {sync} opened while sync {k} still open"));
            }
            let next_expected = l.last_opened.map_or(1, |k| k + 1);
            if *sync != next_expected {
                v(out, diag::SYNC, format!("sync {sync} opened, expected {next_expected}"));
            }
        }
        Event::SyncEnd { sync, .. } => match open {
            Some(k) if k == *sync => {}
            Some(k) => v(out, diag::SYNC, format!("sync_end {sync} closes open sync {k}")),
            None => v(out, diag::SYNC, format!("sync_end {sync} with no open sync")),
        },
        // Controller-plane events are 0-based: interval k runs the
        // exchange for observation k-1.
        Event::ExchangeDone { sync, .. }
        | Event::AllocationHeld { sync }
        | Event::ControllerHold { sync, .. } => {
            if let Some(k) = open.filter(|&k| k > 0) {
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
            if let Some(k) = open.filter(|&k| k > 0) {
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
        _ => {}
    }
    // A final open interval is legal only as a halt (partition death);
    // the advisory halt check reports that case separately.
}

// --- spans ---------------------------------------------------------------

#[derive(Debug, Default)]
struct Spans {
    /// Each node's latest span end, ns.
    last_end: NodeColumn<u64>,
    /// (node, start, end, what) of spans awaiting the interval close.
    pending: Vec<(usize, u64, u64, &'static str)>,
}

impl Spans {
    fn feed(&mut self, l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
        match &ev.ev {
            Event::RunStart { sim_nodes, analysis_nodes, .. } => {
                self.last_end.size(column_len(*sim_nodes, *analysis_nodes));
            }
            Event::SyncStart { .. } => self.pending.clear(),
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
                let prev = self.last_end.get_or_insert_with(*node, || 0);
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
                if let Some((k, w0)) = l.open {
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

fn check_budget(l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
    match &ev.ev {
        Event::BudgetRenormalized { budget_w } if !budget_w.is_finite() || *budget_w < 0.0 => {
            v(out, diag::BUDGET, format!("renormalized budget is not a power: {budget_w}"));
        }
        Event::Decision(d) => {
            let Some(run) = l.run else { return };
            let (b, floor) = (l.budget_w, run.min_cap_w);
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

// --- caps ----------------------------------------------------------------

fn check_caps(l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
    let (Event::CapRequest { node, requested_w, granted_w, effective_ns }, Some(run)) =
        (&ev.ev, l.run)
    else {
        return;
    };
    let (lo, hi, a) = (run.min_cap_w, run.max_cap_w, run.actuation_ns);
    if !(*granted_w >= lo - EPS_W && *granted_w <= hi + EPS_W) {
        v(
            out,
            diag::CAP_RANGE,
            format!("node {node}: granted cap {granted_w} W outside [{lo}, {hi}] W"),
        );
    }
    let clamp = requested_w.clamp(lo, hi);
    // An uncapped domain (CapMode::None) reports its TDP regardless of
    // the request.
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
    // Enforcement is either immediate (no-op request, stuck PCU) or at
    // least one actuation latency out.
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

// --- energy --------------------------------------------------------------

/// Σ interval and Σ node energies; `None` until the first of each kind.
#[derive(Debug, Default)]
struct Energy {
    sync: Option<f64>,
    node: Option<f64>,
}

impl Energy {
    fn feed(&mut self, ev: &TraceEvent, out: &mut Vec<Violation>) {
        match &ev.ev {
            Event::SyncEnergy { sync, energy_j } => {
                let sum = self.sync.get_or_insert(0.0);
                if !energy_j.is_finite() || *energy_j < 0.0 {
                    v(
                        out,
                        diag::ENERGY,
                        format!("interval {sync} energy is not physical: {energy_j}"),
                    );
                } else {
                    *sum += energy_j;
                }
            }
            Event::NodeEnergy { node, energy_j } => {
                let sum = self.node.get_or_insert(0.0);
                if !energy_j.is_finite() || *energy_j < 0.0 {
                    v(out, diag::ENERGY, format!("node {node} energy is not physical: {energy_j}"));
                } else {
                    *sum += energy_j;
                }
            }
            _ => {}
        }
    }

    fn finish(&self, l: &Ledger, out: &mut Vec<Violation>) {
        let Some(total) = l.run_end.map(|r| r.energy_j) else { return };
        let tol = ENERGY_REL_TOL * total.abs().max(1.0);
        for (sum, what) in [(self.sync, "interval"), (self.node, "node")] {
            let Some(sum) = sum.filter(|s| (s - total).abs() > tol) else { continue };
            v(
                out,
                diag::ENERGY,
                format!(
                    "{what} energies sum to {sum} J but the run total is {total} J \
                     (tolerance {tol} J)"
                ),
            );
        }
    }
}

// --- envelope ------------------------------------------------------------

fn check_envelope(l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
    let (Event::MachineBudget { epoch, allocated_w, pool_w }, Some(env)) =
        (&ev.ev, l.machine_envelope_w)
    else {
        return;
    };
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

// --- faults --------------------------------------------------------------

/// The fault-evidence window: everything recorded for intervals that have
/// not closed yet, and the faults awaiting their evidence.
#[derive(Debug, Default)]
struct Faults {
    /// (sync, node, tag) of every recovery in the open evidence window
    /// (1-based sync, matching SyncStart/SyncEnd).
    recoveries: BTreeSet<(u64, usize, Tag)>,
    /// Intervals (1-based) in the window with at least one cap request,
    /// each once.
    cap_intervals: Vec<u64>,
    /// (interval, node) of every sample in the window, record order.
    samples: Vec<(u64, usize)>,
    /// Faults awaiting their evidence interval's close: (sync, node, tag).
    pending: Vec<(u64, usize, Tag)>,
}

impl Faults {
    /// Judge one fault against the currently-held evidence.
    fn judge(&self, out: &mut Vec<Violation>, s: u64, n: usize, tag: &str) {
        let interval = s;
        let has = |t: &'static str| self.recoveries.contains(&(s, n, Tag::Borrowed(t)));
        let has_any_node = |t: &str| self.recoveries.iter().any(|(rs, _, rt)| *rs == s && rt == t);
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
            "sample_spike" => has("sample_rejected") || self.samples.contains(&(interval, n)),
            // A failed cap write is retried — but only if a cap write was
            // attempted at all in that interval (the controller may have
            // held).
            "rapl_write_error" => {
                has("cap_write_retried") || !self.cap_intervals.contains(&interval)
            }
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

    fn feed(&mut self, l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
        let open = l.open.map(|(k, _)| k);
        match &ev.ev {
            Event::SyncEnd { sync: k, .. } => {
                // Interval k just closed: every fault landing in sync ≤ k
                // has its full evidence window in hand — judge it now, then
                // prune the evidence the remaining (later) faults can no
                // longer need.
                for (s, n, tag) in std::mem::take(&mut self.pending) {
                    if s <= *k {
                        self.judge(out, s, n, &tag);
                    } else {
                        self.pending.push((s, n, tag));
                    }
                }
                self.recoveries.retain(|(rs, _, _)| rs > k);
                self.samples.retain(|(ri, _)| ri > k);
                self.cap_intervals.retain(|ri| ri > k);
            }
            Event::CapRequest { .. } => {
                if let Some(k) = open.filter(|k| !self.cap_intervals.contains(k)) {
                    self.cap_intervals.push(k);
                }
            }
            Event::Sample { node, .. } => self.samples.extend(open.map(|k| (k, *node))),
            Event::Recovery { sync, node, tag } => {
                self.recoveries.insert((*sync, *node, tag.clone()));
            }
            Event::Fault { sync, node, tag } => self.pending.push((*sync, *node, tag.clone())),
            _ => {}
        }
    }

    fn finish(&mut self, out: &mut Vec<Violation>) {
        for (s, n, tag) in std::mem::take(&mut self.pending) {
            self.judge(out, s, n, &tag);
        }
    }
}

// --- fleet ---------------------------------------------------------------

/// A closed renormalization group hands out min(envelope, Σ member caps).
fn judge_renorm(fleet_envelope_w: f64, g: &RenormGroup, out: &mut Vec<Violation>) {
    let (epoch, share_sum, cap_sum) = (g.epoch, g.share_w, g.cap_w);
    let expected = fleet_envelope_w.min(cap_sum);
    if (share_sum - expected).abs() > EPS_W * expected.max(1.0) {
        v(
            out,
            diag::FLEET,
            format!(
                "renorm at epoch {epoch}: shares sum to {share_sum} W, expected \
                 min(envelope {fleet_envelope_w} W, member caps {cap_sum} W) = {expected} W"
            ),
        );
    }
}

/// Until `fleet_start` arrives every fleet event is ignored (a
/// single-machine trace carries `job_completed` with no fleet protocol;
/// real fleet traces emit the header first).
fn check_fleet(
    l: &Ledger,
    closed: Option<&RenormGroup>,
    ev: &TraceEvent,
    out: &mut Vec<Violation>,
) {
    let Some(f) = l.fleet else { return };
    if let Some(g) = closed {
        judge_renorm(f.envelope_w, g, out);
    }
    match &ev.ev {
        Event::MachineDown { machine, epoch } if l.down.contains(machine) => {
            v(
                out,
                diag::FLEET,
                format!("machine {machine} declared down at epoch {epoch} while down"),
            );
        }
        Event::MachineUp { machine, epoch } if !l.down.contains(machine) => {
            v(out, diag::FLEET, format!("machine {machine} declared up at epoch {epoch} while up"));
        }
        Event::EnvelopeRenorm { epoch, machine, share_w, cap_w } => {
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
            if l.down.contains(machine) {
                v(
                    out,
                    diag::FLEET,
                    format!("renorm at epoch {epoch}: down machine {machine} got a share"),
                );
            }
        }
        Event::JobDispatched { job, machine } => {
            let j = l.job(*job);
            if !j.arrived {
                v(out, diag::FLEET, format!("job {job} dispatched before arrival"));
            }
            if j.terminal {
                v(out, diag::FLEET, format!("terminal job {job} dispatched again (zombie)"));
            }
            if j.dispatched {
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
            if l.down.contains(machine) {
                v(out, diag::FLEET, format!("job {job} dispatched to down machine {machine}"));
            }
        }
        Event::JobRetry { job, attempt, backoff_epochs } => {
            let j = l.job(*job);
            if !j.dispatched {
                v(out, diag::FLEET, format!("job {job} retried without a live dispatch"));
            }
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
            if *attempt > f.max_retries {
                v(
                    out,
                    diag::FLEET,
                    format!(
                        "job {job}: retry attempt {attempt} exceeds the budget {}",
                        f.max_retries
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
            if *backoff_epochs > f.retry_cap_epochs {
                v(
                    out,
                    diag::FLEET,
                    format!(
                        "job {job}: backoff {backoff_epochs} epochs exceeds the ceiling {}",
                        f.retry_cap_epochs
                    ),
                );
            }
        }
        Event::JobMigrated { job, from_machine, to_machine } => {
            let j = l.job(*job);
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
            let j = l.job(*job);
            // Single-machine traces also carry job_completed; in a
            // fleet trace completion must close a live dispatch.
            if !j.dispatched {
                v(out, diag::FLEET, format!("job {job} completed without a live dispatch"));
            }
            if j.terminal {
                v(out, diag::FLEET, format!("job {job} completed twice"));
            }
        }
        Event::JobFailed { job, attempts } => {
            let j = l.job(*job);
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
        }
        _ => {}
    }
}

// --- lifecycle -----------------------------------------------------------

/// Gated on `machine_start`; fleet and in-situ traces never activate it.
fn check_lifecycle(l: &Ledger, ev: &TraceEvent, out: &mut Vec<Violation>) {
    if l.machine_envelope_w.is_none() {
        return;
    }
    match &ev.ev {
        Event::JobStarted { job, .. } => {
            let j = l.job(*job);
            if !j.arrived {
                v(out, diag::LIFECYCLE, format!("job {job} started without arriving"));
            }
            if j.terminal {
                v(out, diag::LIFECYCLE, format!("job {job} started after terminal state"));
            }
            if j.running {
                v(out, diag::LIFECYCLE, format!("job {job} started while already running"));
            }
        }
        Event::JobCompleted { job, .. } => {
            let j = l.job(*job);
            if !j.running {
                v(out, diag::LIFECYCLE, format!("job {job} completed without running"));
            }
            if j.terminal {
                v(out, diag::LIFECYCLE, format!("job {job} completed after terminal state"));
            }
        }
        Event::JobKilled { job } => {
            let j = l.job(*job);
            // Killing a queued, never-started job is legal (admission
            // kills on machine teardown).
            if !j.arrived {
                v(out, diag::LIFECYCLE, format!("job {job} killed without arriving"));
            }
            if j.terminal {
                v(out, diag::LIFECYCLE, format!("job {job} killed after terminal state"));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimTime;
    use obs::DecisionInfo;

    /// The full battery's findings over `events`, as the auditor reports
    /// them.
    fn check(events: &[TraceEvent]) -> Vec<Violation> {
        crate::audited(events).report.violations
    }

    fn ev(t_ns: u64, ev: Event) -> TraceEvent {
        TraceEvent { t: SimTime::from_nanos(t_ns), ev }
    }

    /// Drive one private checker alone over a trace, flush it, and return
    /// its findings.
    macro_rules! run_checker {
        ($checker:ty, $trace:expr) => {{
            let mut c = <$checker>::default();
            for e in &$trace {
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
        let trace = vec![
            run_start(1760.0),
            ev(0, Event::SyncStart { sync: 1 }),
            ev(0, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 5 }),
            ev(5, Event::Wait { node: 0, start_ns: 5, end_ns: 8 }),
            decision(0, 110.0, 110.0),
            ev(10, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
            ev(10, Event::SyncEnergy { sync: 1, energy_j: 42.0 }),
            ev(10, Event::NodeEnergy { node: 0, energy_j: 42.0 }),
            ev(10, Event::RunEnd { total_time_s: 1e-8, total_energy_j: 42.0 }),
        ];
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn backwards_clock_is_flagged() {
        let trace = vec![
            ev(10, Event::SyncStart { sync: 1 }),
            ev(5, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "clock"));
    }

    #[test]
    fn span_events_may_carry_past_times() {
        let trace = vec![
            ev(10, Event::SyncStart { sync: 1 }),
            ev(90, Event::Phase { node: 0, kind: "force".into(), start_ns: 10, end_ns: 90 }),
            ev(95, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
        ];
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn out_of_order_sync_is_flagged() {
        let trace = vec![
            ev(0, Event::SyncStart { sync: 2 }),
            ev(1, Event::SyncEnd { sync: 2, overhead_s: 0.0 }),
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "sync"));
    }

    #[test]
    fn trailing_open_sync_is_a_legal_halt() {
        let trace = vec![
            ev(0, Event::SyncStart { sync: 1 }),
            ev(1, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
            ev(2, Event::SyncStart { sync: 2 }),
        ];
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn overlapping_node_spans_are_flagged() {
        let trace = vec![
            ev(0, Event::Phase { node: 3, kind: "force".into(), start_ns: 0, end_ns: 10 }),
            ev(0, Event::Phase { node: 3, kind: "neigh".into(), start_ns: 5, end_ns: 15 }),
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "spans"));
    }

    #[test]
    fn span_overrunning_its_interval_is_flagged() {
        let trace = vec![
            ev(0, Event::SyncStart { sync: 1 }),
            ev(9, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 99 }),
            ev(10, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "spans"));
    }

    #[test]
    fn over_budget_decision_is_flagged() {
        let trace = vec![run_start(1760.0), decision(0, 215.0, 98.0)];
        // 12 x 215 + 4 x 98 = 2972 > 1760.
        let violations = check(&trace);
        assert!(violations.iter().any(|x| x.check() == "budget"), "{violations:?}");
    }

    #[test]
    fn floor_pinned_decision_under_infeasible_budget_passes() {
        let trace = vec![run_start(100.0), decision(0, 98.0, 98.0)];
        // 16 x 98 = 1568 > 100, but every cap is pinned at the floor.
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn renormalized_budget_is_tracked() {
        let trace = vec![
            run_start(1760.0),
            ev(5, Event::BudgetRenormalized { budget_w: 1000.0 }),
            decision(1, 110.0, 110.0), // 12x110 + 4x110 = 1760 > 1000
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "budget"));
    }

    #[test]
    fn unclamped_grant_is_flagged() {
        let trace = vec![
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
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "cap_range"));
    }

    #[test]
    fn tdp_grant_from_uncapped_domain_passes() {
        let trace = vec![
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
        ];
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn too_fast_actuation_is_flagged() {
        let trace = vec![
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
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "actuation"));
    }

    #[test]
    fn energy_identity_violation_is_flagged() {
        let trace = vec![
            ev(0, Event::SyncEnergy { sync: 1, energy_j: 10.0 }),
            ev(1, Event::RunEnd { total_time_s: 1.0, total_energy_j: 25.0 }),
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "energy"));
    }

    #[test]
    fn envelope_leak_is_flagged() {
        let trace = vec![
            ev(0, Event::MachineStart { nodes: 16, envelope_w: 1760.0 }),
            ev(0, Event::MachineBudget { epoch: 0, allocated_w: 1000.0, pool_w: 500.0 }),
        ];
        assert!(check(&trace).iter().any(|x| x.check() == "envelope"));
    }

    #[test]
    fn unrecovered_crash_is_flagged_and_paired_crash_passes() {
        let bad = vec![ev(0, Event::Fault { sync: 2, node: 5, tag: "node_crash".into() })];
        assert!(check(&bad).iter().any(|x| x.check() == "faults"));
        let good = vec![
            ev(0, Event::Fault { sync: 2, node: 5, tag: "node_crash".into() }),
            ev(0, Event::Recovery { sync: 2, node: 5, tag: "node_excluded".into() }),
        ];
        assert_eq!(check(&good), Vec::new());
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
        let trace = vec![
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
        ];
        let out = run_checker!(FleetChecker, trace);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn fleet_checks_are_gated_on_the_header() {
        // Without fleet_start the same events are ignored (single-machine
        // traces carry job_completed with no fleet dispatch protocol).
        let trace = vec![ev(0, Event::JobCompleted { job: 0, time_s: 1.0 })];
        let out = run_checker!(FleetChecker, trace);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn lost_job_is_flagged() {
        let trace = vec![
            fleet_start(),
            ev(0, Event::JobArrived { job: 7 }),
            ev(0, Event::JobDispatched { job: 7, machine: 0 }),
        ];
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.check() == "fleet" && x.detail.contains("lost")), "{out:?}");
    }

    #[test]
    fn double_run_is_flagged() {
        let trace = vec![
            fleet_start(),
            ev(0, Event::JobArrived { job: 0 }),
            ev(0, Event::JobDispatched { job: 0, machine: 0 }),
            ev(1, Event::JobDispatched { job: 0, machine: 1 }),
            ev(2, Event::JobCompleted { job: 0, time_s: 1.0 }),
        ];
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("already running")), "{out:?}");
    }

    #[test]
    fn zombie_resubmit_after_failure_is_flagged() {
        let trace = vec![
            fleet_start(),
            ev(0, Event::JobArrived { job: 0 }),
            ev(0, Event::JobDispatched { job: 0, machine: 0 }),
            ev(1, Event::JobFailed { job: 0, attempts: 1 }),
            ev(2, Event::JobDispatched { job: 0, machine: 1 }),
            ev(3, Event::JobCompleted { job: 0, time_s: 1.0 }),
        ];
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
        let out = run_checker!(FleetChecker, events);
        assert!(out.iter().any(|x| x.detail.contains("out of sequence")), "{out:?}");
        // Backoff above the configured ceiling.
        let mut events = base.clone();
        events.push(ev(1, Event::JobRetry { job: 0, attempt: 1, backoff_epochs: 99 }));
        events.push(ev(9, Event::JobFailed { job: 0, attempts: 1 }));
        let out = run_checker!(FleetChecker, events);
        assert!(out.iter().any(|x| x.detail.contains("ceiling")), "{out:?}");
    }

    #[test]
    fn fleet_envelope_leak_is_flagged() {
        let trace = vec![
            fleet_start(),
            // Two members capped at 600 W each: shares must sum to
            // min(1000, 1200) = 1000, not 900.
            ev(0, Event::EnvelopeRenorm { epoch: 0, machine: 0, share_w: 450.0, cap_w: 600.0 }),
            ev(0, Event::EnvelopeRenorm { epoch: 0, machine: 1, share_w: 450.0, cap_w: 600.0 }),
        ];
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("shares sum")), "{out:?}");
        assert!(out.iter().all(|x| x.code_str() == "AUDIT0010"));
    }

    #[test]
    fn down_up_alternation_is_enforced() {
        let trace = vec![
            fleet_start(),
            ev(0, Event::MachineDown { machine: 0, epoch: 1 }),
            ev(1, Event::MachineDown { machine: 0, epoch: 2 }),
            ev(2, Event::MachineUp { machine: 1, epoch: 3 }),
        ];
        let out = run_checker!(FleetChecker, trace);
        assert!(out.iter().any(|x| x.detail.contains("while down")), "{out:?}");
        assert!(out.iter().any(|x| x.detail.contains("while up")), "{out:?}");
    }

    #[test]
    fn write_error_without_cap_traffic_passes() {
        let trace = vec![
            ev(0, Event::SyncStart { sync: 3 }),
            ev(1, Event::Fault { sync: 3, node: 1, tag: "rapl_write_error".into() }),
            ev(2, Event::SyncEnd { sync: 3, overhead_s: 0.0 }),
        ];
        let out = run_checker!(FaultChecker, trace);
        assert_eq!(out, Vec::new());
    }

    #[test]
    fn spike_with_accepted_sample_passes() {
        let trace = vec![
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
        ];
        let out = run_checker!(FaultChecker, trace);
        assert_eq!(out, Vec::new());
    }

    fn machine_start() -> TraceEvent {
        ev(0, Event::MachineStart { nodes: 16, envelope_w: 1760.0 })
    }

    #[test]
    fn clean_job_lifecycle_passes() {
        let trace = vec![
            machine_start(),
            ev(0, Event::JobArrived { job: 0 }),
            ev(1, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
            ev(9, Event::JobCompleted { job: 0, time_s: 1.0 }),
            ev(9, Event::JobArrived { job: 1 }),
            ev(10, Event::JobKilled { job: 1 }), // queued kill: legal
        ];
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn lifecycle_protocol_breaks_are_flagged() {
        // Started without arriving.
        let t1 =
            vec![machine_start(), ev(1, Event::JobStarted { job: 3, nodes: 8, budget_w: 880.0 })];
        let got = check(&t1);
        assert!(
            got.iter()
                .any(|x| x.code_str() == "AUDIT0011" && x.detail.contains("without arriving")),
            "{got:?}"
        );
        // Completed twice (second completion is after a terminal state).
        let t2 = vec![
            machine_start(),
            ev(0, Event::JobArrived { job: 0 }),
            ev(1, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
            ev(2, Event::JobCompleted { job: 0, time_s: 1.0 }),
            ev(3, Event::JobCompleted { job: 0, time_s: 1.0 }),
        ];
        let got = check(&t2);
        assert!(
            got.iter().any(|x| x.check() == "lifecycle" && x.detail.contains("terminal")),
            "{got:?}"
        );
        // Started while already running.
        let t3 = vec![
            machine_start(),
            ev(0, Event::JobArrived { job: 0 }),
            ev(1, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
            ev(2, Event::JobStarted { job: 0, nodes: 8, budget_w: 880.0 }),
        ];
        let got = check(&t3);
        assert!(
            got.iter().any(|x| x.check() == "lifecycle" && x.detail.contains("already running")),
            "{got:?}"
        );
    }

    #[test]
    fn lifecycle_is_gated_on_the_machine_header() {
        // Fleet traces carry job events with no machine_start; the
        // lifecycle protocol does not apply there.
        let trace = vec![ev(1, Event::JobStarted { job: 3, nodes: 8, budget_w: 880.0 })];
        assert_eq!(check(&trace), Vec::new());
    }

    #[test]
    fn halted_run_with_header_draws_the_advisory() {
        let trace = vec![
            run_start(1760.0),
            ev(0, Event::SyncStart { sync: 1 }),
            ev(1, Event::SyncEnd { sync: 1, overhead_s: 0.0 }),
            ev(2, Event::SyncStart { sync: 2 }),
            // no run_end: halted mid-interval
        ];
        let got = check(&trace);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].code_str(), "AUDIT0012");
        assert_eq!(got[0].severity(), Severity::Warning);
        assert!(got[0].detail.contains("interval 2"), "{got:?}");
    }

    /// The battery fed the whole event list at once, in memory, and the
    /// auditor streaming the same events' serialized lines report the same
    /// findings, several checks failing at once.
    #[test]
    fn streaming_feed_matches_batch_battery() {
        let trace = vec![
            run_start(1760.0),
            ev(0, Event::SyncStart { sync: 2 }), // misnumbered
            ev(9, Event::Phase { node: 0, kind: "force".into(), start_ns: 0, end_ns: 99 }), // overruns
            decision(1, 215.0, 215.0), // over budget
            ev(10, Event::SyncEnd { sync: 2, overhead_s: 0.0 }),
            ev(11, Event::Fault { sync: 1, node: 5, tag: "node_crash".into() }),
        ];
        let mut checker = StreamChecker::default();
        for e in &trace {
            checker.feed(e);
        }
        let batch = checker.finish();
        let mut auditor = crate::StreamAuditor::new();
        for e in &trace {
            auditor.feed_line(&e.to_json_line()).expect("the writer's line");
        }
        assert_eq!(batch, auditor.finish().report.violations);
        assert!(batch.iter().any(|x| x.check() == "sync"));
        assert!(batch.iter().any(|x| x.check() == "spans"));
        assert!(batch.iter().any(|x| x.check() == "budget"));
        assert!(batch.iter().any(|x| x.check() == "faults"));
    }

    /// The running count is the full recount at every row, however the
    /// findings and the rows interleave.
    #[test]
    fn errors_so_far_is_the_recount() {
        let mut checker = StreamChecker::default();
        let recount = |c: &StreamChecker| {
            c.out.iter().flatten().filter(|x| x.severity() == Severity::Error).count() as u64
        };
        checker.feed(&run_start(1760.0));
        for k in [2, 2, 5, 3, 9] {
            checker.feed(&ev(0, Event::SyncStart { sync: k }));
            checker.feed(&decision(0, 5000.0, 5000.0));
            if k != 2 {
                assert_eq!(checker.errors_so_far(), recount(&checker));
            }
        }
        assert_eq!(checker.errors_so_far(), recount(&checker));
        assert!(recount(&checker) > 5);
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
