//! The per-node steps, compiled for tests only: the node rules written one
//! node at a time, the reference `pass::tests` holds the column passes
//! (`pass.rs`) to, bit for bit.
//!
//! A phase or a wait is stepped segment by segment: commit the change due
//! by the segment's start (`Rapl::advance`), draw the enforced cap's power
//! (`Cluster::record_draw`, closing the open segment into the windows with
//! `Nodes::close`), and stop at the next pending change if it lands first.

use crate::cluster::Cluster;
use crate::config::{CapMode, MachineConfig};
use crate::node::{term, NodeMut, Nodes, NO_END};
use crate::phase::Work;
use crate::power::{operating_point, OpMemo};
use crate::rapl::{Rapl, NO_CHANGE};
use des::SimTime;

impl Rapl {
    /// Request a new cap for node `k` at time `now`; it takes effect after
    /// the machine's actuation latency. A newer request replaces any
    /// pending one. Returns the clamped value that was accepted.
    pub(crate) fn request_cap(
        &mut self,
        m: &MachineConfig,
        mode: CapMode,
        k: usize,
        now: SimTime,
        watts: f64,
    ) -> f64 {
        if mode == CapMode::None {
            return m.tdp_w;
        }
        let clamped = m.clamp_cap(watts);
        if self.stuck[k] > 0 {
            // Stuck PCU: the caller sees a normal ack, the hardware holds
            // the old cap. `requested_w` keeps the *previous* accepted
            // value so the controller's read-back matches what is enforced.
            self.stuck[k] -= 1;
            return clamped;
        }
        self.requested_w[k] = clamped;
        let enforce = Self::enforceable(m, mode, watts);
        if (enforce - self.active_w[k]).abs() < f64::EPSILON {
            self.pending_at[k] = NO_CHANGE;
            return clamped;
        }
        let mut latency = m.cap_actuation;
        if self.extra_latency_s[k] > 0.0 {
            latency += des::SimDuration::from_secs_f64(self.extra_latency_s[k]);
            self.extra_latency_s[k] = 0.0;
        }
        self.pending_at[k] = now + latency;
        self.pending_w[k] = enforce;
        clamped
    }

    /// Commit node `k`'s pending change if it is due by `now`.
    pub(crate) fn advance(&mut self, k: usize, now: SimTime) {
        if self.pending_at[k] != NO_CHANGE && self.pending_at[k] <= now {
            self.active_w[k] = self.pending_w[k];
            self.pending_at[k] = NO_CHANGE;
        }
    }
}

impl Nodes {
    /// Fold node `k`'s open segment into its windows: a new segment
    /// replaces it at `t`.
    pub(crate) fn close(&mut self, k: usize, t: SimTime, since: SimTime) {
        let (start, watts) = (self.open_from[k], self.open_w[k]);
        let (interval_from, end) = (self.interval_from[k], self.active_to[k]);
        if end != NO_END && t >= end && !self.active_fixed[k] {
            self.active_j[k] = self.interval_j[k] + term(watts, start.max(interval_from), end);
            self.active_fixed[k] = true;
        }
        // A segment that began inside a window adds the same term to it.
        let full = term(watts, start, t);
        let clipped = |from: SimTime| if start >= from { full } else { term(watts, from, t) };
        self.total_j[k] += full;
        self.interval_j[k] += clipped(interval_from);
        self.since_j[k] += clipped(since);
    }
}

impl Cluster {
    /// Node `id` draws `watts` from `t` on: a change beyond the 1e-9 merge
    /// tolerance closes the open segment into the windows (and the log).
    pub(crate) fn record_draw(&mut self, id: usize, t: SimTime, watts: f64) {
        if (watts - self.nodes.open_w[id]).abs() > 1e-9 {
            self.nodes.close(id, t, self.since);
            (self.nodes.open_from[id], self.nodes.open_w[id]) = (t, watts);
            if let Some(log) = self.log.get_mut(id) {
                log.push(t, watts);
            }
        }
    }
}

impl NodeMut<'_> {
    /// Request a new RAPL cap, recording the request/grant/enforcement
    /// triple on the trace. Returns the clamped value RAPL accepted.
    pub(crate) fn request_cap(&mut self, m: &MachineConfig, now: SimTime, watts: f64) -> f64 {
        let c = &mut *self.cluster;
        let granted = c.rapl.request_cap(m, c.cap_mode, self.id, now, watts);
        if c.tracer.is_enabled() {
            c.push_cap_request(self.id, now, watts, granted);
        }
        granted
    }

    /// Open this node's interval and active windows at `t0`, where its
    /// next walk begins.
    pub(crate) fn begin_interval(&mut self, t0: SimTime) {
        let (nodes, k) = (&mut self.cluster.nodes, self.id);
        nodes.interval_from[k] = t0;
        nodes.interval_j[k] = 0.0;
        nodes.active_to[k] = NO_END;
        nodes.active_fixed[k] = false;
    }

    /// Close this node's active window where its walk ended: at its arrival,
    /// or 1 ns after the interval began if it did no timed work.
    pub(crate) fn end_walk(&mut self) {
        let (nodes, k) = (&mut self.cluster.nodes, self.id);
        let floor = nodes.interval_from[k] + des::SimDuration::from_nanos(1);
        nodes.active_to[k] = nodes.busy_until[k].max(floor);
    }

    /// Execute `work` from `start`, honouring any cap change that lands
    /// mid-phase, with the operating points taken from `memo` (evaluated
    /// afresh without one). `jitter` is a per-phase duration multiplier.
    /// Returns the completion time.
    pub(crate) fn run_phase_with(
        &mut self,
        m: &MachineConfig,
        start: SimTime,
        work: Work,
        jitter: f64,
        mut memo: Option<&mut OpMemo>,
    ) -> SimTime {
        let id = self.id;
        debug_assert!(start >= self.busy_until(), "node {id} scheduled into its past");
        debug_assert!(jitter > 0.0);
        self.cluster.rapl.advance(id, start);
        // Remaining work measured in reference-seconds, inflated by jitter
        // and this node's (in)efficiency.
        let mut remaining = work.ref_secs * jitter / self.cluster.noise.node_efficiency(id);
        let mut t = start;
        if remaining <= 0.0 {
            self.cluster.nodes.busy_until[id] = t;
            return t;
        }
        let c = &mut *self.cluster;
        loop {
            let cap = c.rapl.enforced_at(id, t);
            let point = match memo.as_deref_mut() {
                Some(memo) => memo.point(m, cap),
                None => operating_point(m, work, cap),
            };
            c.record_draw(id, t, point.draw_w);
            debug_assert!(point.rate > 0.0, "productive phase stalled");
            let end = t + des::SimDuration::from_secs_f64(remaining / point.rate);
            match c.rapl.next_change_after(id, t) {
                Some(change) if change < end => {
                    remaining -= change.saturating_since(t).as_secs_f64() * point.rate;
                    t = change;
                    c.rapl.advance(id, t);
                }
                _ => {
                    t = end;
                    break;
                }
            }
        }
        c.nodes.busy_until[id] = t;
        if c.tracer.is_enabled() {
            c.push_phase(id, work.kind, start, t);
        }
        t
    }

    /// Block at a synchronization point from `from` until `until`, drawing
    /// the cluster machine's wait power (subject to the cap).
    pub(crate) fn wait_until(&mut self, from: SimTime, until: SimTime) {
        let id = self.id;
        debug_assert!(from >= self.busy_until());
        if until <= from {
            self.cluster.nodes.busy_until[id] = self.busy_until().max(from);
            return;
        }
        let c = &mut *self.cluster;
        c.rapl.advance(id, from);
        // Waiting draws the wait demand, capped (`operating_point` of a wait).
        let demand = c.wait_demand_w;
        let mut t = from;
        while t < until {
            let cap = c.rapl.enforced_at(id, t);
            c.record_draw(id, t, demand.min(cap));
            match c.rapl.next_change_after(id, t) {
                Some(change) if change < until => {
                    t = change;
                    c.rapl.advance(id, t);
                }
                _ => t = until,
            }
        }
        c.nodes.busy_until[id] = until;
        if c.tracer.is_enabled() {
            c.push_wait(id, from, until);
        }
    }
}
