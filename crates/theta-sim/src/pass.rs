//! The column passes: one phase, one wait and one round of cap requests
//! over many nodes' columns, a block of consecutive node ids at a time.
//! They are the only rule that steps a node; a one-node block is a node
//! stepped alone. `Cluster::walk` (`walk.rs`) runs the phase pass once per
//! phase after drawing the partition's jitters; the rendezvous and the cap
//! pass are called per interval, over the same ascending survivor ids,
//! each with its columns parallel to them.
//!
//! Each pass applies the node rules of the per-node steps (the
//! `#[cfg(test)]` oracle in `oracle.rs`, which `pass::tests` holds them
//! to) with the same IEEE operations in the same order per node, so every
//! bit matches: division is correctly rounded packed or not, and rustc
//! forms no FMA. A block is one straight loop over its nodes' columns into
//! stack arrays of 64 lanes, which the loop vectorizer turns into 4-wide
//! AVX2 under `x86-64-v3` (`.cargo/config.toml`); a block of fewer than 8
//! nodes runs one node at a time as one-lane blocks, where the same code
//! compiles loop-free. What cannot run branch-free is then done per
//! node from a lane mask, as the RDF kernel bins its hits: a draw change
//! closing a segment, a cap change landing inside the step (a second
//! sub-step at the change: a node holds at most one change in flight), and
//! a duration the packed conversion does not cover. A faulted PCU is a
//! lane predicate of the request pass. Spans are pushed per node when a
//! tracer is attached.

use crate::cluster::Cluster;
use crate::config::{CapMode, MachineConfig};
use crate::node::{Nodes, NO_END};
use crate::phase::{PhaseKind, Work};
use crate::power::OpMemo;
use crate::rapl::{Rapl, NO_CHANGE};
use des::{SimDuration, SimTime};

/// Most nodes in a block: one `u64` lane mask.
const BLOCK: usize = 64;

/// Blocks of fewer nodes run one node at a time, as one-lane blocks
/// inlined into their pass: at 2 to 7 nodes that measured faster than one
/// block of lanes, and the one-lane code has no loops left.
const NARROW: usize = 8;

/// 2⁵² as an `f64`: adding it to an integral value in `[0, 2⁵²]` leaves
/// that integer in the mantissa bits, exactly.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `SimDuration::from_secs_f64(secs)` in nanoseconds, and whether this
/// form computed it: it does when `secs > 0` and the nanoseconds are below
/// 2⁵². The rounding is `f64::round` as there; the integral result is
/// converted by the 2⁵² mantissa trick, which has a packed form where
/// `as u64` has none. Otherwise the caller converts it the scalar way.
#[inline(always)]
fn lane_nanos(secs: f64) -> (u64, bool) {
    let ns = secs * 1e9;
    let ok = (secs > 0.0) & (ns < TWO_52);
    let bits = (ns.round() + TWO_52).to_bits().wrapping_sub(TWO_52.to_bits());
    (if ok { bits } else { 0 }, ok)
}

/// `t + secs` in nanoseconds, as `SimTime + SimDuration::from_secs_f64`:
/// the packed conversion where it covers `secs`, else the scalar one.
#[inline(always)]
fn after(t: u64, secs: f64) -> u64 {
    match lane_nanos(secs) {
        (ns, true) => t.saturating_add(ns),
        _ => (SimTime::from_nanos(t) + SimDuration::from_secs_f64(secs)).as_nanos(),
    }
}

/// Panics as `Work::scaled` refuses a stretched phase that is negative or
/// not finite, as a caller stepping one node would.
#[cold]
#[inline(never)]
fn refuse_stretch(work: Work, stretch: &[f64]) {
    for &s in stretch.iter().filter(|&&s| s != 1.0) {
        Work::scaled(work.kind, work.ref_secs * s, work.demand_scale);
    }
}

/// The blocks of the `len` ascending ids `id(0..len)`: `(i, k, n)` for
/// the ids `k..k + n` at positions `i..i + n`, every run of consecutive
/// ids cut into blocks of at most [`BLOCK`].
fn blocks(len: usize, id: impl Fn(usize) -> usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        (i < len).then(|| {
            let k = id(i);
            let mut n = 1;
            while n < BLOCK && i + n < len && id(i + n) == k + n {
                n += 1;
            }
            debug_assert!(i + n == len || id(i + n) >= k + n, "node ids must ascend");
            let block = (i, k, n);
            i += n;
            block
        })
    })
}

/// The set lanes of `flags` as a mask, lane `j` at bit `j`.
#[inline(always)]
fn mask(flags: &[bool]) -> u64 {
    flags.iter().enumerate().fold(0, |m, (j, &f)| m | u64::from(f) << j)
}

/// Each set lane of `mask`, lowest first.
#[inline(always)]
fn set_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

impl Cluster {
    /// Run phase `work` on every node of `nodes` (ascending ids) from
    /// `start`, or from each node's own clock if `None`: node `nodes[i]`'s
    /// work is stretched by `stretch[i]` (left untouched at exactly 1.0)
    /// and its duration by `jitter[i]`, the operating points taken from
    /// `memo`. A cap change landing inside the phase splits it there.
    ///
    /// Returns how many nodes had a cap change pending after their start.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_phase_columns(
        &mut self,
        m: &MachineConfig,
        nodes: &[usize],
        start: Option<SimTime>,
        work: Work,
        stretch: &[f64],
        jitter: &[f64],
        memo: &mut OpMemo,
    ) -> u64 {
        assert!(nodes.len() == stretch.len() && nodes.len() == jitter.len());
        let mut late = 0;
        for (i, k, n) in blocks(nodes.len(), |i| nodes[i]) {
            if n < NARROW {
                for j in i..i + n {
                    let inputs = (&stretch[j..j + 1], &jitter[j..j + 1]);
                    late += self.phase_lanes::<1>(m, nodes[j], start, work, inputs, memo);
                }
            } else {
                let inputs = (&stretch[i..i + n], &jitter[i..i + n]);
                late += self.phase_block(m, k, start, work, inputs, memo);
            }
        }
        late
    }

    /// [`Cluster::phase_lanes`], out of line: a block of [`NARROW`] nodes or more.
    #[inline(never)]
    fn phase_block(
        &mut self,
        m: &MachineConfig,
        k: usize,
        first: Option<SimTime>,
        work: Work,
        inputs: (&[f64], &[f64]),
        memo: &mut OpMemo,
    ) -> u64 {
        self.phase_lanes::<BLOCK>(m, k, first, work, inputs, memo)
    }

    /// [`Cluster::run_phase_columns`] over the nodes `k..k + n`, `n` the
    /// length of `stretch` and `jitter`, at most `W`.
    #[inline(always)]
    fn phase_lanes<const W: usize>(
        &mut self,
        m: &MachineConfig,
        k: usize,
        first: Option<SimTime>,
        work: Work,
        (stretch, jitter): (&[f64], &[f64]),
        memo: &mut OpMemo,
    ) -> u64 {
        let n = stretch.len();
        assert!(n <= W);
        let nodes = k..k + n;
        let jitter = &jitter[..n];
        // Commit what is due by each start; a change still pending after
        // it makes the node late.
        let Rapl { active_w, pending_at, pending_w, .. } = &mut self.rapl;
        let active_w = &mut active_w[nodes.clone()];
        let pending_at = &mut pending_at[nodes.clone()];
        let pending_w = &pending_w[nodes.clone()];
        let efficiency = &self.noise.efficiencies()[nodes.clone()];
        let (mut start, mut end, mut remaining) = ([0u64; W], [0u64; W], [0.0; W]);
        let (start, end, remaining) = (&mut start[..n], &mut end[..n], &mut remaining[..n]);
        let (mut rate, mut draw) = ([1.0; W], [0.0; W]);
        let (rate, draw) = (&mut rate[..n], &mut draw[..n]);
        let (mut late, mut closes, mut far) = ([false; W], [false; W], [false; W]);
        let (late, closes, far) = (&mut late[..n], &mut closes[..n], &mut far[..n]);
        let first = first.map(SimTime::as_nanos);
        let busy = &self.nodes.busy_until[nodes.clone()];
        let start_of = |j: usize| first.unwrap_or(busy[j].as_nanos());
        let (mut any_live, mut bad_stretch, mut lates) = (false, false, 0);
        for j in 0..n {
            let s = start_of(j);
            let at = pending_at[j].as_nanos();
            let pending = at != NO_CHANGE.as_nanos();
            let due = pending & (at <= s);
            late[j] = pending & (at > s);
            active_w[j] = if due { pending_w[j] } else { active_w[j] };
            pending_at[j] = if due { NO_CHANGE } else { pending_at[j] };
            let stretched = stretch[j] != 1.0;
            let ref_secs = if stretched { work.ref_secs * stretch[j] } else { work.ref_secs };
            remaining[j] = ref_secs * jitter[j] / efficiency[j];
            start[j] = s;
            any_live |= remaining[j] > 0.0;
            bad_stretch |= stretched & !(ref_secs.is_finite() & (ref_secs >= 0.0));
            lates += u64::from(late[j]);
        }
        if bad_stretch {
            refuse_stretch(work, stretch);
        }
        // One operating point for a block under one cap, else one a node.
        let one_cap = active_w.iter().all(|&cap| cap.to_bits() == active_w[0].to_bits());
        if any_live && one_cap {
            let point = memo.point(m, active_w[0]);
            rate.fill(point.rate);
            draw.fill(point.draw_w);
        } else if any_live {
            for j in (0..n).filter(|&j| remaining[j] > 0.0) {
                let point = memo.point(m, active_w[j]);
                (rate[j], draw[j]) = (point.rate, point.draw_w);
            }
        }
        // The phase unsplit is one segment, `start + from_secs_f64(remaining
        // / rate)`, drawn from the start: a draw change closes the open
        // segment. A late node's change splits it if due before that end.
        let open_w = &self.nodes.open_w[nodes.clone()];
        let (mut live, mut at) = ([false; W], [0u64; W]);
        let (live, at) = (&mut live[..n], &mut at[..n]);
        let (mut any_close, mut any_far, mut any_split) = (false, false, false);
        for j in 0..n {
            let (ns, packed) = lane_nanos(remaining[j] / rate[j]);
            live[j] = remaining[j] > 0.0;
            end[j] = if live[j] { start[j].saturating_add(ns) } else { start[j] };
            closes[j] = live[j] & ((draw[j] - open_w[j]).abs() > 1e-9);
            far[j] = live[j] & !packed;
            any_close |= closes[j];
            any_far |= far[j];
            any_split |= late[j] & live[j];
        }
        for j in set_lanes(if any_far { mask(far) } else { 0 }) {
            end[j] = after(start[j], remaining[j] / rate[j]);
        }
        if any_close {
            self.close_block(k, start, draw, closes);
        }
        if any_split {
            // The second sub-step, from the change: commit it, take off the
            // work the first segment did, look up the new cap's operating
            // point, and close the segment if the draw changes. A change
            // due exactly at the unsplit end does not split.
            let Rapl { active_w, pending_at, pending_w, .. } = &mut self.rapl;
            let active_w = &mut active_w[nodes.clone()];
            let pending_at = &mut pending_at[nodes.clone()];
            let pending_w = &pending_w[nodes.clone()];
            let open_w = &self.nodes.open_w[nodes.clone()];
            let mut any_close = false;
            for j in 0..n {
                at[j] = pending_at[j].as_nanos();
                late[j] &= live[j] & (at[j] < end[j]);
                closes[j] = false;
            }
            for j in set_lanes(mask(late)) {
                remaining[j] -= (at[j] - start[j]) as f64 * 1e-9 * rate[j];
                (active_w[j], pending_at[j]) = (pending_w[j], NO_CHANGE);
                let point = memo.point(m, active_w[j]);
                (rate[j], draw[j]) = (point.rate, point.draw_w);
                closes[j] = (draw[j] - open_w[j]).abs() > 1e-9;
                any_close |= closes[j];
                end[j] = after(at[j], remaining[j] / rate[j]);
            }
            if any_close {
                self.close_block(k, at, draw, closes);
            }
        }
        let busy = &mut self.nodes.busy_until[nodes];
        for j in 0..n {
            busy[j] = SimTime::from_nanos(end[j]);
        }
        if self.tracer.is_enabled() {
            for j in (0..n).filter(|&j| live[j]) {
                let (start, end) = (SimTime::from_nanos(start[j]), SimTime::from_nanos(end[j]));
                self.push_phase(k + j, work.kind, start, end);
            }
        }
        lates
    }

    /// Every node `k + j` with `closes[j]` set starts drawing `draw[j]`
    /// watts at `t[j]` ns, folding its open segment into its windows: a
    /// segment that began inside a window adds its full term to it, one
    /// that began before adds the term from the window's start, and the
    /// active window is fixed by the first segment closing at or after its
    /// end.
    #[inline(always)]
    fn close_block(&mut self, k: usize, t: &[u64], draw: &[f64], closes: &[bool]) {
        let n = t.len();
        let nodes = k..k + n;
        let (draw, closes) = (&draw[..n], &closes[..n]);
        let since = self.since.as_nanos();
        let Nodes {
            open_from,
            open_w,
            total_j,
            interval_from,
            interval_j,
            since_j,
            active_to,
            active_j,
            active_fixed,
            ..
        } = &mut self.nodes;
        let open_from = &mut open_from[nodes.clone()];
        let open_w = &mut open_w[nodes.clone()];
        let total_j = &mut total_j[nodes.clone()];
        let interval_from = &interval_from[nodes.clone()];
        let interval_j = &mut interval_j[nodes.clone()];
        let since_j = &mut since_j[nodes.clone()];
        let active_to = &active_to[nodes.clone()];
        let active_j = &mut active_j[nodes.clone()];
        let active_fixed = &mut active_fixed[nodes.clone()];
        // `term(watts, from, to)`, on nanoseconds.
        let term = |watts: f64, from: u64, to: u64| watts * (to.saturating_sub(from) as f64 * 1e-9);
        for j in 0..n {
            let (start, watts, tj) = (open_from[j].as_nanos(), open_w[j], t[j]);
            let (from, end) = (interval_from[j].as_nanos(), active_to[j].as_nanos());
            let fix = closes[j] & (end != NO_END.as_nanos()) & (tj >= end) & !active_fixed[j];
            if fix {
                active_j[j] = interval_j[j] + term(watts, start.max(from), end);
            }
            active_fixed[j] |= fix;
            if closes[j] {
                total_j[j] += term(watts, start, tj);
                interval_j[j] += term(watts, start.max(from), tj);
                since_j[j] += term(watts, start.max(since), tj);
                open_from[j] = SimTime::from_nanos(tj);
                open_w[j] = draw[j];
            }
        }
        if !self.log.is_empty() {
            for j in set_lanes(mask(closes)) {
                self.log[k + j].push(SimTime::from_nanos(t[j]), draw[j]);
            }
        }
    }

    /// [`Cluster::wait_lanes`], out of line: a block of [`NARROW`] nodes or more.
    #[inline(never)]
    fn wait_block(&mut self, k: usize, n: usize, from: impl Fn(usize) -> SimTime, until: SimTime) {
        self.wait_lanes::<BLOCK>(k, n, from, until)
    }

    /// Every node `k..k + n` (`n` at most `W`) waits from `from(j)` until
    /// `until`, drawing the wait demand under its cap; a cap change landing
    /// inside the wait starts a second segment there.
    #[inline(always)]
    fn wait_lanes<const W: usize>(
        &mut self,
        k: usize,
        n: usize,
        from: impl Fn(usize) -> SimTime,
        until: SimTime,
    ) {
        let nodes = k..k + n;
        let Rapl { active_w, pending_at, pending_w, .. } = &mut self.rapl;
        let active_w = &mut active_w[nodes.clone()];
        let pending_at = &mut pending_at[nodes.clone()];
        let pending_w = &pending_w[nodes.clone()];
        let busy = &mut self.nodes.busy_until[nodes.clone()];
        let open_w = &self.nodes.open_w[nodes.clone()];
        let (until_ns, demand) = (until.as_nanos(), self.wait_demand_w);
        let (mut waits, mut late, mut closes) = ([false; W], [false; W], [false; W]);
        let (waits, late, closes) = (&mut waits[..n], &mut late[..n], &mut closes[..n]);
        let (mut at, mut draw) = ([0u64; W], [0.0; W]);
        let (at, draw) = (&mut at[..n], &mut draw[..n]);
        let (mut any_close, mut any_late) = (false, false);
        for j in 0..n {
            let f = from(j).as_nanos();
            let due_at = pending_at[j].as_nanos();
            let pending = due_at != NO_CHANGE.as_nanos();
            waits[j] = until_ns > f;
            let due = waits[j] & pending & (due_at <= f);
            late[j] = waits[j] & pending & (due_at > f) & (due_at < until_ns);
            active_w[j] = if due { pending_w[j] } else { active_w[j] };
            pending_at[j] = if due { NO_CHANGE } else { pending_at[j] };
            draw[j] = demand.min(active_w[j]);
            let b = busy[j].as_nanos();
            busy[j] = SimTime::from_nanos(if waits[j] { until_ns } else { b.max(f) });
            closes[j] = waits[j] & ((draw[j] - open_w[j]).abs() > 1e-9);
            at[j] = f;
            any_close |= closes[j];
            any_late |= late[j];
        }
        if any_close {
            self.close_block(k, at, draw, closes);
        }
        if any_late {
            // The second segment, from the change: commit it and close the
            // segment if the capped wait draw changes.
            let Rapl { active_w, pending_at, pending_w, .. } = &mut self.rapl;
            let open_w = &self.nodes.open_w[nodes.clone()];
            let mut any_close = false;
            closes.fill(false);
            for j in set_lanes(mask(late)) {
                at[j] = pending_at[k + j].as_nanos();
                (active_w[k + j], pending_at[k + j]) = (pending_w[k + j], NO_CHANGE);
                draw[j] = demand.min(active_w[k + j]);
                closes[j] = (draw[j] - open_w[j]).abs() > 1e-9;
                any_close |= closes[j];
            }
            if any_close {
                self.close_block(k, at, draw, closes);
            }
        }
        if self.tracer.is_enabled() {
            for j in (0..n).filter(|&j| waits[j]) {
                self.push_wait(k + j, from(j), until);
            }
        }
    }

    /// The rendezvous: every node of `nodes` (ascending ids) waits from
    /// its arrival, `arrivals[i]`, until `until`, then its true mean power
    /// over its active window, `[t0, max(arrival, t0 + 1 ns))`, is appended
    /// to `power` (as [`Cluster::mean_power`] reads it).
    pub fn rendezvous(
        &mut self,
        t0: SimTime,
        until: SimTime,
        nodes: &[usize],
        arrivals: &[SimTime],
        power: &mut Vec<f64>,
    ) {
        assert_eq!(nodes.len(), arrivals.len());
        let floor = t0 + SimDuration::from_nanos(1);
        for (i, k, n) in blocks(nodes.len(), |i| nodes[i]) {
            let block = &arrivals[i..i + n];
            if n < NARROW {
                for (&id, &arrival) in nodes[i..i + n].iter().zip(block) {
                    self.wait_lanes::<1>(id, 1, |_| arrival, until);
                    self.mean_power_lanes::<1>(id, 1, t0, |_| arrival.max(floor), power);
                }
            } else {
                self.wait_block(k, n, |j| block[j], until);
                self.mean_power_block(k, n, t0, |j| block[j].max(floor), power);
            }
        }
    }

    /// [`Cluster::mean_power_lanes`], out of line: a block of [`NARROW`] nodes or more.
    #[inline(never)]
    fn mean_power_block(
        &self,
        k: usize,
        n: usize,
        from: SimTime,
        to: impl Fn(usize) -> SimTime,
        out: &mut Vec<f64>,
    ) {
        self.mean_power_lanes::<BLOCK>(k, n, from, to, out)
    }

    /// [`Cluster::mean_power`] of every node `k..k + n` (`n` at most `W`)
    /// over `[from, to(j))`, appended to `out`: the window read and the one
    /// division, lane by lane. A window the lanes do not answer is read per
    /// node, which panics where that read does.
    #[inline(always)]
    fn mean_power_lanes<const W: usize>(
        &self,
        k: usize,
        n: usize,
        from: SimTime,
        to: impl Fn(usize) -> SimTime,
        out: &mut Vec<f64>,
    ) {
        let nodes = k..k + n;
        let nd = &self.nodes;
        let (open_from, open_w) = (&nd.open_from[nodes.clone()], &nd.open_w[nodes.clone()]);
        let (total_j, since_j) = (&nd.total_j[nodes.clone()], &nd.since_j[nodes.clone()]);
        let (interval_from, interval_j) =
            (&nd.interval_from[nodes.clone()], &nd.interval_j[nodes.clone()]);
        let (active_to, active_j) = (&nd.active_to[nodes.clone()], &nd.active_j[nodes.clone()]);
        let active_fixed = &nd.active_fixed[nodes.clone()];
        let (from, since) = (from.as_nanos(), self.since.as_nanos());
        let (mut mean, mut odd) = ([0.0; W], [false; W]);
        let (mean, odd) = (&mut mean[..n], &mut odd[..n]);
        let term = |watts: f64, from: u64, to: u64| watts * (to.saturating_sub(from) as f64 * 1e-9);
        for j in 0..n {
            let to = to(j).as_nanos();
            let start = open_from[j].as_nanos();
            let ifrom = interval_from[j].as_nanos();
            // `Nodes::read`, its branches as selects.
            let empty = to <= from;
            let active = active_fixed[j] & (from == ifrom) & (to == active_to[j].as_nanos());
            let base = if from == 0 {
                total_j[j]
            } else if from == ifrom {
                interval_j[j]
            } else {
                since_j[j]
            };
            let upto = base + term(open_w[j], start.max(from), to);
            let folded = (from == 0) | (from == ifrom) | (from == since);
            let energy = if empty {
                0.0
            } else if active {
                active_j[j]
            } else if folded {
                upto
            } else {
                term(open_w[j], from, to)
            };
            odd[j] = !empty & !active & ((start > to) | (!folded & (start > from)));
            let dt = to.saturating_sub(from) as f64 * 1e-9;
            mean[j] = if dt <= 0.0 { open_w[j] } else { energy / dt };
        }
        for j in set_lanes(mask(odd)) {
            mean[j] = self.mean_power(k + j, SimTime::from_nanos(from), to(j));
        }
        out.extend_from_slice(mean);
    }

    /// Open the interval and active windows of every node of `nodes`
    /// (ascending ids) at `t0`, where its walk begins.
    pub(crate) fn begin_intervals(&mut self, nodes: &[usize], t0: SimTime) {
        let nd = &mut self.nodes;
        for &k in nodes {
            nd.interval_from[k] = t0;
            nd.interval_j[k] = 0.0;
            nd.active_to[k] = NO_END;
            nd.active_fixed[k] = false;
        }
    }

    /// Close the active window of every node of `nodes` (ascending ids)
    /// where its walk ended, at its arrival or 1 ns after the interval
    /// began if it did no timed work, and append its arrival, no earlier
    /// than `t0`, to `arrivals`.
    pub(crate) fn end_walks(&mut self, nodes: &[usize], t0: SimTime, arrivals: &mut Vec<SimTime>) {
        let nd = &mut self.nodes;
        for &k in nodes {
            let floor = nd.interval_from[k] + SimDuration::from_nanos(1);
            nd.active_to[k] = nd.busy_until[k].max(floor);
        }
        // One exact reservation: regrowing it node by node moved a traced
        // 32-node job's peak RSS from 9.9 to 12.5 MB (the heap's layout).
        arrivals.extend(nodes.iter().map(|&k| nd.busy_until[k].max(t0)));
    }

    /// Node `nodes[i]` requests `targets[i]` at `at` when `targets` is
    /// given, then every node waits from `at` until `until`, spans
    /// included.
    pub fn request_caps_and_wait(
        &mut self,
        m: &MachineConfig,
        at: SimTime,
        until: SimTime,
        nodes: &[usize],
        targets: Option<&[f64]>,
    ) {
        if let Some(targets) = targets {
            assert_eq!(nodes.len(), targets.len());
        }
        for (i, k, n) in blocks(nodes.len(), |i| nodes[i]) {
            if n < NARROW {
                for j in i..i + n {
                    if let Some(targets) = targets {
                        self.request_lanes::<1>(m, nodes[j], at, &targets[j..j + 1]);
                    }
                    self.wait_lanes::<1>(nodes[j], 1, |_| at, until);
                }
            } else {
                if let Some(targets) = targets {
                    self.request_block(m, k, at, &targets[i..i + n]);
                }
                self.wait_block(k, n, |_| at, until);
            }
        }
    }

    /// [`Cluster::request_lanes`], out of line: a block of [`NARROW`] nodes or more.
    #[inline(never)]
    fn request_block(&mut self, m: &MachineConfig, k: usize, now: SimTime, watts: &[f64]) {
        self.request_lanes::<BLOCK>(m, k, now, watts)
    }

    /// Nodes `k..k + n` request `watts` at `now` (`n`, its length, at most
    /// `W`). Under [`CapMode::None`] nothing changes and TDP is granted.
    /// Otherwise the clamped request is granted, and:
    /// - a stuck PCU drops the request: one fewer to drop, nothing else;
    /// - a request whose enforced cap equals the one in force cancels any
    ///   pending change (an armed extra latency stays armed);
    /// - any other lands after the actuation latency, plus the armed extra
    ///   latency, which it uses up.
    #[inline(always)]
    fn request_lanes<const W: usize>(
        &mut self,
        m: &MachineConfig,
        k: usize,
        now: SimTime,
        watts: &[f64],
    ) {
        let n = watts.len();
        let nodes = k..k + n;
        let mode = self.cap_mode;
        let (mut granted, mut delayed) = ([m.tdp_w; W], [false; W]);
        let (granted, delayed) = (&mut granted[..n], &mut delayed[..n]);
        if mode != CapMode::None {
            let Rapl {
                active_w, requested_w, pending_at, pending_w, stuck, extra_latency_s, ..
            } = &mut self.rapl;
            let active_w = &active_w[nodes.clone()];
            let requested_w = &mut requested_w[nodes.clone()];
            let pending_at = &mut pending_at[nodes.clone()];
            let pending_w = &mut pending_w[nodes.clone()];
            let stuck = &mut stuck[nodes.clone()];
            let extra = &mut extra_latency_s[nodes.clone()];
            let landing = now + m.cap_actuation;
            let mut any_delayed = false;
            for j in 0..n {
                let dropped = stuck[j] > 0;
                let clamped = m.clamp_cap(watts[j]);
                let enforce = Rapl::enforceable(m, mode, watts[j]);
                let same = (enforce - active_w[j]).abs() < f64::EPSILON;
                let moves = !dropped & !same;
                granted[j] = clamped;
                stuck[j] -= u32::from(dropped);
                requested_w[j] = if dropped { requested_w[j] } else { clamped };
                let at = if same { NO_CHANGE } else { landing };
                pending_at[j] = if dropped { pending_at[j] } else { at };
                pending_w[j] = if moves { enforce } else { pending_w[j] };
                delayed[j] = moves & (extra[j] > 0.0);
                any_delayed |= delayed[j];
            }
            // A change put in flight uses up the armed extra latency.
            for j in set_lanes(if any_delayed { mask(delayed) } else { 0 }) {
                let latency = m.cap_actuation + SimDuration::from_secs_f64(extra[j]);
                (pending_at[j], extra[j]) = (now + latency, 0.0);
            }
        }
        if self.tracer.is_enabled() {
            for j in 0..n {
                self.push_cap_request(k + j, now, watts[j], granted[j]);
            }
        }
    }

    /// Node `id`'s span of a `kind` phase, `[start, end)`.
    pub(crate) fn push_phase(&mut self, id: usize, kind: PhaseKind, start: SimTime, end: SimTime) {
        self.spans[id].push(obs::TraceEvent {
            t: start,
            ev: obs::Event::Phase {
                node: id,
                kind: kind.tag().into(),
                start_ns: start.as_nanos(),
                end_ns: end.as_nanos(),
            },
        });
    }

    /// Node `id`'s wait span, `[from, until)`.
    pub(crate) fn push_wait(&mut self, id: usize, from: SimTime, until: SimTime) {
        self.spans[id].push(obs::TraceEvent {
            t: from,
            ev: obs::Event::Wait { node: id, start_ns: from.as_nanos(), end_ns: until.as_nanos() },
        });
    }

    /// Node `id`'s cap request at `now`: asked, granted, and when it lands
    /// (the request time when it never changes enforcement: a no-op or a
    /// stuck PCU).
    pub(crate) fn push_cap_request(&mut self, id: usize, now: SimTime, asked: f64, granted: f64) {
        let effective = self.rapl.next_change_after(id, now).unwrap_or(now);
        self.spans[id].push(obs::TraceEvent {
            t: now,
            ev: obs::Event::CapRequest {
                node: id,
                requested_w: asked,
                granted_w: granted,
                effective_ns: effective.as_nanos(),
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseSeed, NoiseSigmas, PhaseKind};
    use des::Rng;

    /// The same cluster twice: one stepped by the column passes, the other
    /// node by node through `NodeMut`.
    fn pair(rng: &mut Rng, n: usize) -> (Cluster, Cluster, obs::Tracer, obs::Tracer) {
        let mode = [CapMode::None, CapMode::Long, CapMode::LongShort][rng.next_below(3) as usize];
        let sigmas =
            if rng.next_below(2) == 0 { NoiseSigmas::zero() } else { NoiseSigmas::for_mode(mode) };
        let caps: Vec<f64> = match rng.next_below(3) {
            0 => vec![110.0; n],
            1 => (0..n).map(|k| if k % 3 == 0 { 100.0 } else { 125.0 }).collect(),
            _ => (0..n).map(|_| rng.uniform(98.0, 140.0)).collect(),
        };
        let seed = NoiseSeed::new(rng.next_u64(), 1);
        let m = MachineConfig::theta();
        let mut a = Cluster::with_caps_sigmas(m.clone(), &caps, mode, sigmas, seed);
        let mut b = Cluster::with_caps_sigmas(m, &caps, mode, sigmas, seed);
        if rng.next_below(3) == 0 {
            a.keep_draw_log();
            b.keep_draw_log();
        }
        let tracers = (obs::Tracer::enabled(), obs::Tracer::enabled());
        if rng.next_below(2) == 0 {
            a.set_tracer(&tracers.0);
            b.set_tracer(&tracers.1);
        }
        (a, b, tracers.0, tracers.1)
    }

    /// Every column of both clusters, bit for bit (`{:?}` of an `f64` is
    /// exact).
    fn assert_same(a: &mut Cluster, b: &mut Cluster, what: &str) {
        assert_eq!(format!("{:?}", a.rapl), format!("{:?}", b.rapl), "{what}: RAPL columns");
        assert_eq!(format!("{:?}", a.nodes), format!("{:?}", b.nodes), "{what}: node columns");
        assert_eq!(format!("{:?}", a.log), format!("{:?}", b.log), "{what}: draw logs");
        a.flush_trace();
        b.flush_trace();
    }

    /// Generated intervals through the three passes and through the
    /// per-node steps: partitions with holes and blocks longer than one
    /// lane mask, zero and stretched work, jitter, every cap mode, cap
    /// changes landing inside phases and waits, stuck and delayed RAPL,
    /// zero-length waits, spans and draw logs.
    #[test]
    fn column_passes_step_like_each_node_alone() {
        let mut rng = Rng::seed_from_u64(0xC01_5EE5);
        for case in 0..48 {
            let n = 1 + rng.next_below(150) as usize;
            let (mut a, mut b, ta, tb) = pair(&mut rng, n);
            let m = a.config().clone();
            let mut t0 = SimTime::ZERO;
            for interval in 0..6 {
                let what = format!("case {case}, interval {interval}");
                let nodes: Vec<usize> = (0..n).filter(|_| rng.next_below(8) != 0).collect();
                let stretch: Vec<f64> =
                    nodes.iter().map(|_| if rng.next_below(6) == 0 { 1.6 } else { 1.0 }).collect();
                let kinds = PhaseKind::all_productive();
                let phases: Vec<Work> = (0..1 + rng.next_below(4))
                    .map(|_| {
                        let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
                        let ref_secs = match rng.next_below(6) {
                            0 => 0.0,
                            _ => rng.uniform(1.0e-3, 2.0e-2),
                        };
                        Work::scaled(kind, ref_secs, rng.uniform(0.6, 1.0))
                    })
                    .collect();
                let mut memo = (OpMemo::default(), OpMemo::default());
                a.begin_intervals(&nodes, t0);
                for &k in &nodes {
                    b.node_mut(k).begin_interval(t0);
                }
                for (p, &work) in phases.iter().enumerate() {
                    let jitter: Vec<f64> = nodes.iter().map(|_| rng.uniform(0.9, 1.1)).collect();
                    memo.0.reset(&m, work);
                    memo.1.reset(&m, work);
                    let start = (p == 0).then_some(t0);
                    a.run_phase_columns(&m, &nodes, start, work, &stretch, &jitter, &mut memo.0);
                    for (i, &k) in nodes.iter().enumerate() {
                        let mut node = b.node_mut(k);
                        let at = start.unwrap_or(node.busy_until());
                        let w = if stretch[i] == 1.0 {
                            work
                        } else {
                            Work::scaled(work.kind, work.ref_secs * stretch[i], work.demand_scale)
                        };
                        node.run_phase_with(&m, at, w, jitter[i], Some(&mut memo.1));
                    }
                    assert_same(&mut a, &mut b, &format!("{what}, phase {p}"));
                }
                let mut arrivals = (Vec::new(), Vec::new());
                a.end_walks(&nodes, t0, &mut arrivals.0);
                for &k in &nodes {
                    let mut node = b.node_mut(k);
                    node.end_walk();
                    arrivals.1.push(node.busy_until().max(t0));
                }
                assert_eq!(arrivals.0, arrivals.1, "{what}: arrivals");
                let last = arrivals.0.iter().copied().max().unwrap_or(t0);
                let until = last + SimDuration::from_nanos(rng.next_below(3) * 4_000);
                let mut power = (Vec::new(), Vec::new());
                a.rendezvous(t0, until, &nodes, &arrivals.0, &mut power.0);
                let floor = t0 + SimDuration::from_nanos(1);
                for (&k, &arrival) in nodes.iter().zip(&arrivals.1) {
                    b.node_mut(k).wait_until(arrival, until);
                    power.1.push(b.mean_power(k, t0, arrival.max(floor)));
                }
                let bits = |p: &[f64]| p.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&power.0), bits(&power.1), "{what}: mean power");
                assert_same(&mut a, &mut b, &format!("{what}, rendezvous"));
                for &k in &nodes {
                    let (fault, extra) = (rng.next_below(16), rng.uniform(1.0e-3, 3.0e-2));
                    for c in [&mut a, &mut b] {
                        match fault {
                            0 => c.node_mut(k).inject_ignore_requests(1),
                            1 => c.node_mut(k).inject_extra_latency(extra),
                            _ => {}
                        }
                    }
                }
                let targets: Vec<f64> = nodes
                    .iter()
                    .map(|&k| match rng.next_below(3) {
                        0 => a.requested_cap(k),
                        _ => rng.uniform(90.0, 150.0),
                    })
                    .collect();
                let t_end = until + SimDuration::from_nanos(rng.next_below(3) * 20_000);
                let asked = (rng.next_below(4) != 0).then_some(&targets[..]);
                a.request_caps_and_wait(&m, until, t_end, &nodes, asked);
                for (i, &k) in nodes.iter().enumerate() {
                    let mut node = b.node_mut(k);
                    if asked.is_some() {
                        node.request_cap(&m, until, targets[i]);
                    }
                    node.wait_until(until, t_end);
                }
                assert_same(&mut a, &mut b, &format!("{what}, cap requests"));
                if rng.next_below(2) == 0 {
                    a.compact_history(t_end);
                    b.compact_history(t_end);
                }
                t0 = t_end;
            }
            assert_eq!(ta.to_jsonl(), tb.to_jsonl(), "case {case}: spans");
        }
    }

    /// A cap change due exactly where a phase or a wait starts is
    /// committed first, as `Rapl::advance` commits it, by the passes as by
    /// the per-node steps.
    #[test]
    fn a_change_due_at_the_start_is_committed_first() {
        let m = MachineConfig::theta();
        let nodes: Vec<usize> = (0..5).collect();
        let landing = SimTime::ZERO + m.cap_actuation;
        let until = landing + SimDuration::from_millis(5);
        let work = Work::new(PhaseKind::Force, 0.01);
        let mut clusters = [0, 1].map(|_| Cluster::noiseless(m.clone(), 5, CapMode::Long, 110.0));
        for (i, c) in clusters.iter_mut().enumerate() {
            let mut memo = OpMemo::default();
            memo.reset(&m, work);
            for &k in &nodes {
                c.node_mut(k).request_cap(&m, SimTime::ZERO, 120.0 + k as f64);
            }
            // Every node waits until the change is due, then nodes 0–2 run
            // a phase and nodes 3–4 wait from there.
            if i == 0 {
                c.request_caps_and_wait(&m, SimTime::ZERO, landing, &nodes, None);
                let ones = [1.0; 3];
                c.run_phase_columns(&m, &nodes[..3], Some(landing), work, &ones, &ones, &mut memo);
                c.request_caps_and_wait(&m, landing, until, &nodes[3..], None);
            } else {
                for &k in &nodes {
                    c.node_mut(k).wait_until(SimTime::ZERO, landing);
                }
                for k in 0..3 {
                    c.node_mut(k).run_phase_with(&m, landing, work, 1.0, Some(&mut memo));
                }
                for k in 3..5 {
                    c.node_mut(k).wait_until(landing, until);
                }
            }
        }
        let [a, b] = &mut clusters;
        for &k in &nodes {
            assert_eq!(a.rapl.active_w[k], 120.0 + k as f64, "node {k}'s change is committed");
        }
        assert_same(a, b, "changes due at the start");
    }

    /// A Theta-sized machine, 4 392 nodes in blocks of [`BLOCK`] lanes,
    /// in rounds of one cap request and four phases from each node's own
    /// clock, the jitter spreading the nodes' phase boundaries around the
    /// change. The late count of every phase pass is the oracle's count
    /// of nodes with a change pending after their start, read before each
    /// node steps.
    #[test]
    fn a_theta_sized_pass_counts_late_lanes_like_the_oracle() {
        let m = MachineConfig::theta();
        let n = 4392;
        let mut rng = Rng::seed_from_u64(0x7E7A_4392);
        let caps: Vec<f64> = (0..n).map(|_| rng.uniform(98.0, 140.0)).collect();
        let sigmas = NoiseSigmas::for_mode(CapMode::Long);
        let seed = NoiseSeed::new(rng.next_u64(), 1);
        let [mut a, mut b] = [0, 1]
            .map(|_| Cluster::with_caps_sigmas(m.clone(), &caps, CapMode::Long, sigmas, seed));
        let nodes: Vec<usize> = (0..n).collect();
        let (mut t, mut lates) = (SimTime::ZERO, 0);
        for round in 0..3 {
            let targets: Vec<f64> = nodes
                .iter()
                .map(|&k| if k % 5 == 0 { a.requested_cap(k) } else { rng.uniform(90.0, 150.0) })
                .collect();
            a.request_caps_and_wait(&m, t, t, &nodes, Some(&targets));
            for &k in &nodes {
                b.node_mut(k).request_cap(&m, t, targets[k]);
                b.node_mut(k).wait_until(t, t);
            }
            assert_same(&mut a, &mut b, &format!("round {round}, cap requests"));
            let work = Work::new(PhaseKind::Force, rng.uniform(2.0e-3, 6.0e-3));
            for p in 0..4 {
                let what = format!("round {round}, phase {p}");
                let jitter: Vec<f64> = nodes.iter().map(|_| rng.uniform(0.5, 1.5)).collect();
                let mut memo = (OpMemo::default(), OpMemo::default());
                memo.0.reset(&m, work);
                memo.1.reset(&m, work);
                let start = (p == 0).then_some(t);
                let ones = vec![1.0; n];
                let late =
                    a.run_phase_columns(&m, &nodes, start, work, &ones, &jitter, &mut memo.0);
                let mut pending = 0;
                for &k in &nodes {
                    let at = start.unwrap_or(b.node_mut(k).busy_until());
                    pending += u64::from(b.next_change_after(k, at).is_some());
                    b.node_mut(k).run_phase_with(&m, at, work, jitter[k], Some(&mut memo.1));
                }
                assert_eq!(late, pending, "{what}: late count");
                assert_same(&mut a, &mut b, &what);
                lates += late;
            }
            let last = nodes.iter().map(|&k| a.node_mut(k).busy_until()).max().unwrap();
            t = last + SimDuration::from_millis(1);
        }
        assert!(lates > 0, "some phases start before the change lands");
    }

    /// One step of a boundary scenario over nodes `0..n`: the passes take
    /// it on one cluster, the per-node steps on the other.
    #[derive(Clone, Copy)]
    enum Step {
        /// Every node requests `watts(k)` at `at`.
        Request(SimTime, fn(usize) -> f64),
        /// Every node runs `work` from `start`, or from its own clock.
        Phase(Option<SimTime>, Work),
        /// Every node waits from the first instant until the second.
        Wait(SimTime, SimTime),
        /// Every even node's PCU drops the next `stuck` requests and adds
        /// `extra` seconds to the next one that lands.
        Faults(u32, f64),
    }

    /// `steps` at block lengths on each side of both edges (one lane at a
    /// time below [`NARROW`], [`BLOCK`] lanes from there, a second block
    /// past it), every column, draw log, span and late count compared
    /// after each step.
    fn steps_like_each_node_alone(what: &str, steps: &[Step]) {
        let m = MachineConfig::theta();
        for n in [1, 2, 3, 7, 8, 63, 64, 65] {
            let nodes: Vec<usize> = (0..n).collect();
            let tracers = [obs::Tracer::enabled(), obs::Tracer::enabled()];
            let [mut a, mut b] = [0, 1].map(|i| {
                let mut c = Cluster::noiseless(m.clone(), n, CapMode::Long, 110.0);
                c.keep_draw_log();
                c.set_tracer(&tracers[i]);
                c
            });
            for (s, &step) in steps.iter().enumerate() {
                let what = format!("{what}, {n} nodes, step {s}");
                match step {
                    Step::Request(at, watts) => {
                        let targets: Vec<f64> = nodes.iter().map(|&k| watts(k)).collect();
                        a.request_caps_and_wait(&m, at, at, &nodes, Some(&targets));
                        for &k in &nodes {
                            b.node_mut(k).request_cap(&m, at, targets[k]);
                            b.node_mut(k).wait_until(at, at);
                        }
                    }
                    Step::Phase(start, work) => {
                        let mut memo = (OpMemo::default(), OpMemo::default());
                        memo.0.reset(&m, work);
                        memo.1.reset(&m, work);
                        let ones = vec![1.0; n];
                        let late =
                            a.run_phase_columns(&m, &nodes, start, work, &ones, &ones, &mut memo.0);
                        let mut pending = 0;
                        for &k in &nodes {
                            let at = start.unwrap_or(b.node_mut(k).busy_until());
                            pending += u64::from(b.next_change_after(k, at).is_some());
                            b.node_mut(k).run_phase_with(&m, at, work, 1.0, Some(&mut memo.1));
                        }
                        assert_eq!(late, pending, "{what}: late count");
                    }
                    Step::Wait(from, until) => {
                        a.request_caps_and_wait(&m, from, until, &nodes, None);
                        for &k in &nodes {
                            b.node_mut(k).wait_until(from, until);
                        }
                    }
                    Step::Faults(stuck, extra) => {
                        for c in [&mut a, &mut b] {
                            for k in (0..n).step_by(2) {
                                c.node_mut(k).inject_ignore_requests(stuck);
                                c.node_mut(k).inject_extra_latency(extra);
                            }
                        }
                    }
                }
                assert_same(&mut a, &mut b, &what);
            }
            assert_eq!(tracers[0].to_jsonl(), tracers[1].to_jsonl(), "{what}, {n} nodes: spans");
        }
    }

    /// A change landing at the edges of a phase or a wait, and faulted
    /// PCUs, at block lengths 1, 2, 3, 7, 8, 63, 64 and 65, bit for
    /// bit against the per-node steps: even nodes move their cap, odd nodes
    /// request the one they hold.
    #[test]
    fn split_and_faulted_lanes_step_like_each_node_alone() {
        let m = MachineConfig::theta();
        let ns = SimTime::from_nanos;
        let act = m.cap_actuation.as_nanos();
        let work = Work::new(PhaseKind::Force, 0.005);
        let up: fn(usize) -> f64 = |k| if k % 2 == 0 { 130.0 } else { 110.0 };
        let down: fn(usize) -> f64 = |k| if k % 2 == 0 { 125.0 } else { 110.0 };
        let hold: fn(usize) -> f64 = |_| 110.0;
        // A phase from 20 ms, and where it ends under 110 W throughout.
        let s = 20_000_000;
        let mut probe = Cluster::noiseless(m.clone(), 1, CapMode::Long, 110.0);
        let end = probe.node_mut(0).run_phase_with(&m, ns(s), work, 1.0, None).as_nanos();
        assert!(end - s < act, "the request lands before the phase starts");
        let phase = |change: u64| {
            [
                Step::Request(ns(change - act), up),
                Step::Phase(Some(ns(s)), work),
                Step::Phase(None, work),
                Step::Wait(ns(s + 40_000_000), ns(s + 45_000_000)),
            ]
        };
        steps_like_each_node_alone("a change 1 ns into the phase", &phase(s + 1));
        steps_like_each_node_alone("a change at the unsplit end", &phase(end));
        steps_like_each_node_alone("a change 1 ns past the end", &phase(end + 1));
        // Splits whose first segment runs under 120 W, at a rate other
        // than 1, at three offsets into the phase.
        let raise: fn(usize) -> f64 = |k| if k % 2 == 0 { 120.0 } else { 110.0 };
        for change in [s + 1_234_567, s + 2_718_282, s + 3_141_593] {
            steps_like_each_node_alone(
                "a change mid-phase from 120 W",
                &[
                    Step::Request(ns(0), raise),
                    Step::Wait(ns(0), ns(change - act)),
                    Step::Request(ns(change - act), up),
                    Step::Phase(Some(ns(s)), work),
                ],
            );
        }
        let until = s + 5_000_000;
        let wait =
            |change: u64| [Step::Request(ns(change - act), up), Step::Wait(ns(s), ns(until))];
        steps_like_each_node_alone("a change inside a wait", &wait(s + 3_000_000));
        steps_like_each_node_alone("a change at the wait's end", &wait(until));
        steps_like_each_node_alone(
            "stuck and extra latency on one node",
            &[
                Step::Faults(1, 2.0e-3),
                Step::Request(ns(0), up),
                Step::Wait(ns(0), ns(s)),
                Step::Request(ns(s), down),
                Step::Phase(Some(ns(s + 9_000_000)), work),
                Step::Wait(ns(s + 40_000_000), ns(s + 45_000_000)),
            ],
        );
        steps_like_each_node_alone(
            "a no-op request with extra latency armed",
            &[
                Step::Faults(0, 2.0e-3),
                Step::Request(ns(0), hold),
                Step::Request(ns(5_000_000), up),
                Step::Wait(ns(5_000_000), ns(s)),
            ],
        );
        steps_like_each_node_alone(
            "an extra latency above 2^52 ns",
            &[
                Step::Faults(0, 1.5 * TWO_52 * 1e-9),
                Step::Request(ns(0), up),
                Step::Phase(Some(ns(s)), work),
                Step::Wait(ns(s + 40_000_000), ns(s + 45_000_000)),
            ],
        );
    }
}
