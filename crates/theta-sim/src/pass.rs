//! The column passes: one phase, one wait and one round of cap requests
//! over many nodes' columns, a block of consecutive node ids at a time.
//!
//! Each pass applies the rules of [`NodeMut`](crate::NodeMut)'s scalar
//! steps, with the same IEEE operations in the same order per node, so
//! every bit matches: division is correctly rounded packed or not, and
//! rustc forms no FMA. A block is one straight loop over its nodes'
//! columns into stack arrays, which the loop vectorizer turns into 4-wide
//! AVX2 under `x86-64-v3` (`.cargo/config.toml`). What cannot run
//! branch-free is then done per node from a lane mask, as the RDF kernel
//! bins its hits: a cap change landing inside the step (the node takes the
//! scalar step instead), a draw change closing a segment, and a duration
//! the packed conversion does not cover. Spans are pushed per node when a
//! tracer is attached.

use crate::cluster::Cluster;
use crate::config::{CapMode, MachineConfig};
use crate::node::{Nodes, NO_END};
use crate::phase::Work;
use crate::power::OpMemo;
use crate::rapl::{Rapl, NO_CHANGE};
use des::{SimDuration, SimTime};

/// Most nodes in a block: one `u64` lane mask.
const BLOCK: usize = 64;

/// Fewest nodes a block runs as lanes: a shorter one takes the per-node
/// steps, since its fixed cost would outweigh what its lanes save.
const MIN_BLOCK: usize = 16;

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
    /// Walk every node of `nodes` (ascending ids) from `t0` through
    /// `phases`: open its interval, run each phase in turn (node
    /// `nodes[i]`'s work stretched by `stretch[i]`, left untouched at
    /// exactly 1.0, and phase `p`'s duration by `jitter[p * nodes.len() +
    /// i]`), close its active window and append `(node, arrival)`, the
    /// arrival no earlier than `t0`, to `arrivals`. Each phase's operating
    /// points come from `memo`, reset for it. Every node ends where the
    /// per-node steps would leave it, bit for bit: `begin_interval`,
    /// [`NodeMut::run_phase_with`] per phase, `end_walk`.
    ///
    /// Returns how many node-phases took that scalar step because a cap
    /// change was pending after their start.
    ///
    /// [`NodeMut::run_phase_with`]: crate::NodeMut::run_phase_with
    #[allow(clippy::too_many_arguments)]
    pub fn walk(
        &mut self,
        m: &MachineConfig,
        nodes: &[usize],
        t0: SimTime,
        phases: &[Work],
        stretch: &[f64],
        jitter: &[f64],
        memo: &mut OpMemo,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) -> u64 {
        let n = nodes.len();
        assert!(stretch.len() == n && jitter.len() == n * phases.len());
        let mut scalar = 0;
        if n < MIN_BLOCK {
            // Too few nodes for lanes: the per-node steps, phase by phase.
            for &id in nodes {
                self.node_mut(id).begin_interval(t0);
            }
            for (p, &work) in phases.iter().enumerate() {
                memo.reset(m, work);
                let (first, jitter) = ((p == 0).then_some(t0), &jitter[p * n..(p + 1) * n]);
                for (i, &id) in nodes.iter().enumerate() {
                    scalar += self.phase_node(m, id, first, work, stretch[i], jitter[i], memo);
                }
            }
            for &id in nodes {
                let mut node = self.node_mut(id);
                node.end_walk();
                arrivals.push((id, node.busy_until().max(t0)));
            }
            return scalar;
        }
        self.begin_intervals(nodes, t0);
        for (p, &work) in phases.iter().enumerate() {
            memo.reset(m, work);
            let (first, jitter) = ((p == 0).then_some(t0), &jitter[p * n..(p + 1) * n]);
            scalar += self.run_phase_columns(m, nodes, first, work, stretch, jitter, memo);
        }
        self.end_walks(nodes, t0, arrivals);
        scalar
    }

    /// Run phase `work` on every node of `nodes` (ascending ids) from
    /// `start`, or from each node's own clock if `None`: node `nodes[i]`'s
    /// work is stretched by `stretch[i]` (left untouched at exactly 1.0)
    /// and its duration by `jitter[i]`, the operating points taken from
    /// `memo`. Every node ends where [`NodeMut::run_phase_with`] would
    /// leave it, bit for bit, spans and draw log included.
    ///
    /// Returns how many nodes took that scalar step instead: those with a
    /// pending cap change after their start, which may land inside the
    /// phase.
    ///
    /// [`NodeMut::run_phase_with`]: crate::NodeMut::run_phase_with
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
        let mut scalar = 0;
        for (i, k, n) in blocks(nodes.len(), |i| nodes[i]) {
            if n < MIN_BLOCK {
                for j in i..i + n {
                    scalar +=
                        self.phase_node(m, nodes[j], start, work, stretch[j], jitter[j], memo);
                }
            } else {
                let inputs = (&stretch[i..i + n], &jitter[i..i + n]);
                scalar += self.phase_block(m, k, start, work, inputs, memo);
            }
        }
        scalar
    }

    /// Node `id`'s phase by the scalar step; 1 if a cap change was pending
    /// after its start.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn phase_node(
        &mut self,
        m: &MachineConfig,
        id: usize,
        first: Option<SimTime>,
        work: Work,
        stretch: f64,
        jitter: f64,
        memo: &mut OpMemo,
    ) -> u64 {
        let start = first.unwrap_or(self.nodes.busy_until[id]);
        let late = self.rapl.next_change_after(id, start).is_some();
        let work = if stretch == 1.0 {
            work
        } else {
            Work::scaled(work.kind, work.ref_secs * stretch, work.demand_scale)
        };
        self.node_mut(id).run_phase_with(m, start, work, jitter, Some(memo));
        u64::from(late)
    }

    /// [`Cluster::run_phase_columns`] over the nodes `k..k + n`, `n` the
    /// length of `stretch` and `jitter`.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn phase_block(
        &mut self,
        m: &MachineConfig,
        k: usize,
        first: Option<SimTime>,
        work: Work,
        (stretch, jitter): (&[f64], &[f64]),
        memo: &mut OpMemo,
    ) -> u64 {
        let n = stretch.len();
        let nodes = k..k + n;
        let jitter = &jitter[..n];
        // Commit what is due by each start (`Rapl::advance`); a change
        // still pending after it sends the node to the scalar step.
        let Rapl { active_w, pending_at, pending_w, .. } = &mut self.rapl;
        let active_w = &mut active_w[nodes.clone()];
        let pending_at = &mut pending_at[nodes.clone()];
        let pending_w = &pending_w[nodes.clone()];
        let efficiency = &self.noise.efficiencies()[nodes.clone()];
        let busy = &mut self.nodes.busy_until[nodes.clone()];
        let (mut start, mut remaining, mut late) = ([0u64; BLOCK], [0.0; BLOCK], [false; BLOCK]);
        let (start, remaining, late) = (&mut start[..n], &mut remaining[..n], &mut late[..n]);
        let (mut rate, mut draw) = ([1.0; BLOCK], [0.0; BLOCK]);
        let (rate, draw) = (&mut rate[..n], &mut draw[..n]);
        let (mut closes, mut todo) = ([false; BLOCK], [false; BLOCK]);
        let (closes, todo) = (&mut closes[..n], &mut todo[..n]);
        let first = first.map(SimTime::as_nanos);
        let start_of = |busy: SimTime| first.unwrap_or(busy.as_nanos());
        // The first node's cap once committed: the block's one cap if all
        // share it.
        let due0 = pending_at[0] != NO_CHANGE && pending_at[0].as_nanos() <= start_of(busy[0]);
        let cap0 = if due0 { pending_w[0] } else { active_w[0] }.to_bits();
        let (mut any_live, mut one_cap, mut bad_stretch) = (false, true, false);
        for j in 0..n {
            let s = start_of(busy[j]);
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
            any_live |= !late[j] & (remaining[j] > 0.0);
            one_cap &= active_w[j].to_bits() == cap0;
            bad_stretch |= stretched & !(ref_secs.is_finite() & (ref_secs >= 0.0));
        }
        let stretched =
            |j: usize| Work::scaled(work.kind, work.ref_secs * stretch[j], work.demand_scale);
        if bad_stretch {
            // `Work::scaled` refuses it, as the scalar step's caller would.
            for j in (0..n).filter(|&j| stretch[j] != 1.0) {
                stretched(j);
            }
        }
        // One operating point for a block under one cap, else one a node.
        if any_live && one_cap {
            let point = memo.point(m, active_w[0]);
            rate.fill(point.rate);
            draw.fill(point.draw_w);
        } else if any_live {
            for j in (0..n).filter(|&j| !late[j] && remaining[j] > 0.0) {
                let point = memo.point(m, active_w[j]);
                (rate[j], draw[j]) = (point.rate, point.draw_w);
            }
        }
        // With no change in flight the phase is one segment,
        // `start + from_secs_f64(remaining / rate)`, drawn from the start:
        // a draw change closes the open segment (`record_draw`). A late
        // node, or one whose conversion was not packed, is finished per
        // node.
        let open_w = &self.nodes.open_w[nodes.clone()];
        let (mut any_close, mut any_todo) = (false, false);
        for j in 0..n {
            let (ns, packed) = lane_nanos(remaining[j] / rate[j]);
            let end = if remaining[j] > 0.0 { start[j].saturating_add(ns) } else { start[j] };
            busy[j] = if late[j] { busy[j] } else { SimTime::from_nanos(end) };
            let live = !late[j] & (remaining[j] > 0.0);
            closes[j] = live & ((draw[j] - open_w[j]).abs() > 1e-9);
            todo[j] = late[j] | (live & !packed);
            any_close |= closes[j];
            any_todo |= todo[j];
        }
        if any_close {
            self.close_block(k, start, draw, closes);
        }
        let mut scalar = 0;
        for j in set_lanes(if any_todo { mask(todo) } else { 0 }) {
            let (id, start) = (k + j, SimTime::from_nanos(start[j]));
            if late[j] {
                let work = if stretch[j] == 1.0 { work } else { stretched(j) };
                self.node_mut(id).run_phase_with(m, start, work, jitter[j], Some(memo));
                scalar += 1;
            } else {
                let end = start + SimDuration::from_secs_f64(remaining[j] / rate[j]);
                self.nodes.busy_until[id] = end;
            }
        }
        if self.tracer.is_enabled() {
            for j in (0..n).filter(|&j| !late[j] && remaining[j] > 0.0) {
                let (id, start) = (k + j, SimTime::from_nanos(start[j]));
                let work = if stretch[j] == 1.0 { work } else { stretched(j) };
                self.push_phase(id, work, start, self.nodes.busy_until[id]);
            }
        }
        scalar
    }

    /// Every node `k + j` with `closes[j]` set starts drawing `draw[j]`
    /// watts at `t[j]` ns, folding its open segment into its windows: what
    /// `record_draw` does on a change, [`Nodes::close`] lane by lane.
    ///
    /// [`Nodes::close`]: crate::node::Nodes::close
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
            let fixed = interval_j[j] + term(watts, start.max(from), end);
            let full = term(watts, start, tj);
            let clipped_interval = if start >= from { full } else { term(watts, from, tj) };
            let clipped_since = if start >= since { full } else { term(watts, since, tj) };
            active_j[j] = if fix { fixed } else { active_j[j] };
            active_fixed[j] |= fix;
            total_j[j] = if closes[j] { total_j[j] + full } else { total_j[j] };
            interval_j[j] =
                if closes[j] { interval_j[j] + clipped_interval } else { interval_j[j] };
            since_j[j] = if closes[j] { since_j[j] + clipped_since } else { since_j[j] };
            open_from[j] = if closes[j] { SimTime::from_nanos(tj) } else { open_from[j] };
            open_w[j] = if closes[j] { draw[j] } else { watts };
        }
        if !self.log.is_empty() {
            for j in set_lanes(mask(closes)) {
                self.log[k + j].push(SimTime::from_nanos(t[j]), draw[j]);
            }
        }
    }

    /// Every node `k..k + n` waits from `from(j)` until `until`, as
    /// [`NodeMut::wait_until`] would, bit for bit.
    ///
    /// [`NodeMut::wait_until`]: crate::NodeMut::wait_until
    #[inline(never)]
    fn wait_block(&mut self, k: usize, n: usize, from: impl Fn(usize) -> SimTime, until: SimTime) {
        let nodes = k..k + n;
        let Rapl { active_w, pending_at, pending_w, .. } = &mut self.rapl;
        let active_w = &mut active_w[nodes.clone()];
        let pending_at = &mut pending_at[nodes.clone()];
        let pending_w = &pending_w[nodes.clone()];
        let busy = &mut self.nodes.busy_until[nodes.clone()];
        let open_w = &self.nodes.open_w[nodes.clone()];
        let (until_ns, demand) = (until.as_nanos(), self.wait_demand_w);
        let (mut waits, mut late, mut closes) = ([false; BLOCK], [false; BLOCK], [false; BLOCK]);
        let (waits, late, closes) = (&mut waits[..n], &mut late[..n], &mut closes[..n]);
        let (mut at, mut draw) = ([0u64; BLOCK], [0.0; BLOCK]);
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
            let rest = if waits[j] { until_ns } else { b.max(f) };
            busy[j] = SimTime::from_nanos(if late[j] { b } else { rest });
            closes[j] = waits[j] & !late[j] & ((draw[j] - open_w[j]).abs() > 1e-9);
            at[j] = f;
            any_close |= closes[j];
            any_late |= late[j];
        }
        if any_close {
            self.close_block(k, at, draw, closes);
        }
        for j in set_lanes(if any_late { mask(late) } else { 0 }) {
            self.node_mut(k + j).wait_until(from(j), until);
        }
        if self.tracer.is_enabled() {
            for j in (0..n).filter(|&j| waits[j] && !late[j]) {
                self.push_wait(k + j, from(j), until);
            }
        }
    }

    /// The rendezvous: every node of `arrivals` (`(node, arrival)`,
    /// ascending ids) waits from its arrival until `until`, then its true
    /// mean power over its active window, `[t0, max(arrival, t0 + 1 ns))`,
    /// is appended to `power`. Each node ends as after
    /// [`NodeMut::wait_until`] and [`Cluster::mean_power`] in turn.
    ///
    /// [`NodeMut::wait_until`]: crate::NodeMut::wait_until
    pub fn rendezvous(
        &mut self,
        t0: SimTime,
        until: SimTime,
        arrivals: &[(usize, SimTime)],
        power: &mut Vec<f64>,
    ) {
        let floor = t0 + SimDuration::from_nanos(1);
        for (i, k, n) in blocks(arrivals.len(), |i| arrivals[i].0) {
            let block = &arrivals[i..i + n];
            if n < MIN_BLOCK {
                for &(id, arrival) in block {
                    self.node_mut(id).wait_until(arrival, until);
                    power.push(self.mean_power(id, t0, arrival.max(floor)));
                }
            } else {
                self.wait_block(k, n, |j| block[j].1, until);
                self.mean_power_block(k, n, t0, |j| block[j].1.max(floor), power);
            }
        }
    }

    /// [`Cluster::mean_power`] of every node `k..k + n` over `[from,
    /// to(j))`, appended to `out`: the window read and the one division,
    /// lane by lane. A window the lanes do not answer is read per node,
    /// which panics where the scalar read does.
    #[inline(never)]
    fn mean_power_block(
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
        let (mut mean, mut odd) = ([0.0; BLOCK], [false; BLOCK]);
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
    /// (ascending ids) at `t0`: [`NodeMut::begin_interval`] per node.
    ///
    /// [`NodeMut::begin_interval`]: crate::NodeMut::begin_interval
    pub(crate) fn begin_intervals(&mut self, nodes: &[usize], t0: SimTime) {
        for (_, k, n) in blocks(nodes.len(), |i| nodes[i]) {
            let nodes = k..k + n;
            let nd = &mut self.nodes;
            nd.interval_from[nodes.clone()].fill(t0);
            nd.interval_j[nodes.clone()].fill(0.0);
            nd.active_to[nodes.clone()].fill(NO_END);
            nd.active_fixed[nodes].fill(false);
        }
    }

    /// Close the active window of every node of `nodes` (ascending ids)
    /// where its walk ended ([`NodeMut::end_walk`]) and append `(node,
    /// arrival)`, the arrival no earlier than `t0`, to `arrivals`.
    ///
    /// [`NodeMut::end_walk`]: crate::NodeMut::end_walk
    pub(crate) fn end_walks(
        &mut self,
        nodes: &[usize],
        t0: SimTime,
        arrivals: &mut Vec<(usize, SimTime)>,
    ) {
        for (_, k, n) in blocks(nodes.len(), |i| nodes[i]) {
            let nodes = k..k + n;
            let nd = &mut self.nodes;
            let busy = &nd.busy_until[nodes.clone()];
            let interval_from = &nd.interval_from[nodes.clone()];
            let active_to = &mut nd.active_to[nodes];
            for j in 0..n {
                let floor = interval_from[j] + SimDuration::from_nanos(1);
                active_to[j] = busy[j].max(floor);
            }
            arrivals.extend(busy.iter().enumerate().map(|(j, &b)| (k + j, b.max(t0))));
        }
    }

    /// Node `nodes[i]` requests `targets[i]` at `at` when `targets` is
    /// given, then every node waits from `at` until `until`: what
    /// [`NodeMut::request_cap`] and [`NodeMut::wait_until`] do per node,
    /// bit for bit, spans included.
    ///
    /// [`NodeMut::request_cap`]: crate::NodeMut::request_cap
    /// [`NodeMut::wait_until`]: crate::NodeMut::wait_until
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
            if n < MIN_BLOCK {
                for j in i..i + n {
                    let mut node = self.node_mut(nodes[j]);
                    if let Some(targets) = targets {
                        node.request_cap(m, at, targets[j]);
                    }
                    node.wait_until(at, until);
                }
                continue;
            }
            if let Some(targets) = targets {
                self.request_block(m, k, at, &targets[i..i + n]);
            }
            self.wait_block(k, n, |_| at, until);
        }
    }

    /// Nodes `k..k + n` request `watts` at `now`, as
    /// [`NodeMut::request_cap`] would.
    ///
    /// [`NodeMut::request_cap`]: crate::NodeMut::request_cap
    #[inline(never)]
    fn request_block(&mut self, m: &MachineConfig, k: usize, now: SimTime, watts: &[f64]) {
        let n = watts.len();
        let nodes = k..k + n;
        let mode = self.cap_mode;
        let (mut granted, mut faulty) = ([m.tdp_w; BLOCK], [false; BLOCK]);
        let (granted, faulty) = (&mut granted[..n], &mut faulty[..n]);
        if mode != CapMode::None {
            let Rapl { active_w, requested_w, pending_at, pending_w, stuck, extra_latency_s } =
                &mut self.rapl;
            let active_w = &active_w[nodes.clone()];
            let requested_w = &mut requested_w[nodes.clone()];
            let pending_at = &mut pending_at[nodes.clone()];
            let pending_w = &mut pending_w[nodes.clone()];
            let (stuck, extra) = (&stuck[nodes.clone()], &extra_latency_s[nodes.clone()]);
            let landing = now + m.cap_actuation;
            for j in 0..n {
                // A stuck PCU or an extra latency takes the scalar rule.
                faulty[j] = (stuck[j] > 0) | (extra[j] > 0.0);
                let clamped = m.clamp_cap(watts[j]);
                let enforce = Rapl::enforceable(m, mode, watts[j]);
                let same = (enforce - active_w[j]).abs() < f64::EPSILON;
                granted[j] = clamped;
                requested_w[j] = if faulty[j] { requested_w[j] } else { clamped };
                let at = if same { NO_CHANGE } else { landing };
                pending_at[j] = if faulty[j] { pending_at[j] } else { at };
                pending_w[j] = if faulty[j] | same { pending_w[j] } else { enforce };
            }
            for j in set_lanes(mask(faulty)) {
                granted[j] = self.rapl.request_cap(m, mode, k + j, now, watts[j]);
            }
        }
        if self.tracer.is_enabled() {
            for j in 0..n {
                self.push_cap_request(k + j, now, watts[j], granted[j]);
            }
        }
    }

    /// Node `id`'s phase span, `[start, end)`.
    pub(crate) fn push_phase(&mut self, id: usize, work: Work, start: SimTime, end: SimTime) {
        self.spans[id].push(obs::TraceEvent {
            t: start,
            ev: obs::Event::Phase {
                node: id,
                kind: work.kind.tag().into(),
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
                    arrivals.1.push((k, node.busy_until().max(t0)));
                }
                assert_eq!(arrivals.0, arrivals.1, "{what}: arrivals");
                let last = arrivals.0.iter().map(|&(_, t)| t).max().unwrap_or(t0);
                let until = last + SimDuration::from_nanos(rng.next_below(3) * 4_000);
                let mut power = (Vec::new(), Vec::new());
                a.rendezvous(t0, until, &arrivals.0, &mut power.0);
                let floor = t0 + SimDuration::from_nanos(1);
                for &(k, arrival) in &arrivals.1 {
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
}
