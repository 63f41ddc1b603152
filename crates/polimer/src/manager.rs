//! The power manager: PoLiMER's core object.

use crate::NodeInterval;
use des::SimDuration;
use faults::{RecoveryEvent, RecoveryKind};
use mpisim::{Communicator, NetworkModel};
use seesaw::{Allocation, Controller, Limits, Role, SyncObservation, UnknownController};

/// Bounded retries for a timed-out measurement collective before the
/// manager gives up for the interval and holds the last allocation.
pub const MAX_COLLECTIVE_RETRIES: u32 = 3;

/// Per-node power readings above this are treated as sensor corruption
/// and rejected (Theta nodes top out at a 215 W TDP; nothing plausible
/// approaches a kilowatt).
pub(crate) const MAX_PLAUSIBLE_POWER_W: f64 = 1000.0;

/// The interconnect the measurement exchange is priced on.
const NET: NetworkModel = NetworkModel::aries();

/// Local compute time of one allocation decision, seconds (the arithmetic
/// is trivial; the paper's Fig. 9b measures ~µs–ms dominated by RAPL
/// interaction, which the runtime models separately).
const DECIDE_S: f64 = 5.0e-6;

/// Bytes each monitor contributes to the measurement gather: time, power
/// and cap.
const SAMPLE_BYTES: u64 = 24;

/// Bytes of the decision broadcast.
const DECISION_BYTES: u64 = 16;

/// Faults affecting one measurement-exchange round, as decided by the
/// fault plan the runtime carries. The default (no losses, no timeouts)
/// leaves `power_alloc` byte-identical to the fault-free path.
#[derive(Debug, Clone, Default)]
pub struct ExchangeFaults {
    /// Nodes whose monitor contribution is lost in the gather, ascending.
    pub lost_nodes: Vec<usize>,
    /// Collective attempts that time out before one succeeds. Beyond
    /// [`MAX_COLLECTIVE_RETRIES`] the whole exchange is abandoned for the
    /// interval.
    pub failed_attempts: u32,
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct PowerManagerConfig {
    /// Controller name, one of [`seesaw::CONTROLLER_NAMES`] (resolved via
    /// [`seesaw::controller_by_name`]).
    pub controller: String,
}

impl PowerManagerConfig {
    /// Choose the controller by name.
    pub fn with_controller(name: &str) -> Self {
        PowerManagerConfig { controller: name.to_string() }
    }
}

/// Result of one `power_alloc()` call.
#[derive(Debug, Clone)]
pub struct AllocOutcome {
    /// New allocation to apply, if the controller decided to act.
    pub allocation: Option<Allocation>,
    /// Time spent exchanging measurements and deciding (charged into the
    /// next interval's feedback and reported in Fig. 9).
    pub overhead: SimDuration,
    /// Graceful-degradation actions taken during this exchange.
    pub recoveries: Vec<RecoveryEvent>,
}

/// The PoLiMER power manager for one job.
pub struct PowerManager {
    roles: Vec<Role>,
    monitor_ranks: Vec<usize>,
    world_nodes: usize,
    ranks_per_node: usize,
    /// Participation mask: nodes marked dead are excluded from aggregation
    /// and their budget share is released to the survivors.
    alive: Vec<bool>,
    /// Per-rank liveness, indexed by global rank: ranks whose monitor died
    /// stay dead and are skipped at the next re-election.
    dead_ranks: Vec<bool>,
    controller: Box<dyn Controller>,
    /// The job's baseline budget, for survivor renormalization.
    initial_budget_w: Option<f64>,
    /// The open interval's samples; `step` is its sync index. The buffer
    /// is reused across syncs.
    obs: SyncObservation,
    /// The previous exchange's overhead, seconds, folded into every time
    /// recorded for the open interval (the paper includes allocation time
    /// in the measured interval, §VI-B).
    carry_s: f64,
    /// The lanes the last `record_partition` did not record.
    rejected: Vec<usize>,
    tracer: obs::Tracer,
}

impl PowerManager {
    /// Initialize: mirrors `poli_init_power_manager(comm, rank, master,
    /// cap)`. `role_of` classifies each global rank (the `master` flag in
    /// the paper's instrumentation); one monitor rank per node is
    /// designated automatically. The controller runs at the paper's
    /// defaults: 110 W per node, `w = 1`, Theta's limits. An unrecognized
    /// controller name is a recoverable [`UnknownController`] error, not a
    /// panic.
    pub fn init<F: Fn(usize) -> Role>(
        world: &Communicator,
        role_of: F,
        cfg: PowerManagerConfig,
    ) -> Result<Self, UnknownController> {
        let budget_w = 110.0 * world.nnodes() as f64;
        let controller = seesaw::controller_by_name(&cfg.controller, budget_w, 1, Limits::theta())?;
        Ok(Self::init_with_controller(world, role_of, controller))
    }

    /// Initialize with an explicitly constructed controller (custom budget,
    /// window, limits — the experiment runtime uses this).
    pub fn init_with_controller<F: Fn(usize) -> Role>(
        world: &Communicator,
        role_of: F,
        controller: Box<dyn Controller>,
    ) -> Self {
        let monitor_ranks = world.node_leaders();
        let nnodes = world.nnodes();
        let roles = monitor_ranks.iter().map(|&r| role_of(r)).collect();
        let initial_budget_w = controller.budget_w();
        PowerManager {
            roles,
            monitor_ranks,
            world_nodes: nnodes,
            ranks_per_node: world.size() / nnodes,
            alive: vec![true; nnodes],
            dead_ranks: vec![false; world.size()],
            controller,
            initial_budget_w,
            obs: SyncObservation { step: 0, nodes: Vec::new() },
            carry_s: 0.0,
            rejected: Vec::new(),
            tracer: obs::Tracer::off(),
        }
    }

    /// Attach a trace sink; it is forwarded to the controller so decision
    /// internals land on the same timeline.
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        self.tracer = tracer.clone();
        self.controller.attach_tracer(tracer.clone());
    }

    /// The designated monitor ranks, one per node.
    pub fn monitor_ranks(&self) -> &[usize] {
        &self.monitor_ranks
    }

    /// Completed synchronization count.
    pub fn sync_index(&self) -> u64 {
        self.obs.step
    }

    /// Nodes still participating in aggregation.
    pub(crate) fn alive_nodes(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether a node is still participating.
    #[inline]
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// Exclude a crashed node from aggregation and release its budget
    /// share to the survivors. Returns the recovery actions taken (empty
    /// if the node was already dead or out of range).
    pub fn mark_node_dead(&mut self, node: usize) -> Vec<RecoveryEvent> {
        if node >= self.world_nodes || !self.alive[node] {
            return Vec::new();
        }
        self.alive[node] = false;
        let sync = self.obs.step;
        let mut events = vec![RecoveryEvent { sync, node, kind: RecoveryKind::NodeExcluded }];
        if self.tracer.is_enabled() {
            self.tracer.emit(obs::Event::NodeExcluded { node });
        }
        if let Some(b0) = self.initial_budget_w {
            let share = b0 / self.world_nodes as f64;
            let budget_w = share * self.alive_nodes() as f64;
            self.controller.set_budget_w(budget_w);
            events.push(RecoveryEvent { sync, node, kind: RecoveryKind::BudgetRenormalized });
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::BudgetRenormalized { budget_w });
            }
        }
        events
    }

    /// The monitor rank on `node` died: promote the node's next *live*
    /// rank to monitor. Dead ranks are remembered, so repeated monitor
    /// deaths on the same node never re-elect an earlier casualty.
    /// Returns the new monitor rank and the recovery event, or `None`
    /// when no live rank remains to promote (single-rank nodes, or every
    /// rank already dead — callers should treat that as a node failure).
    pub fn mark_monitor_dead(&mut self, node: usize) -> Option<(usize, RecoveryEvent)> {
        if node >= self.world_nodes || !self.alive[node] || self.ranks_per_node <= 1 {
            return None;
        }
        let base = node * self.ranks_per_node;
        let old_local = self.monitor_ranks[node] - base;
        self.dead_ranks[base + old_local] = true;
        let next_local = (1..self.ranks_per_node)
            .map(|k| (old_local + k) % self.ranks_per_node)
            .find(|&k| !self.dead_ranks[base + k])?;
        let new = base + next_local;
        self.monitor_ranks[node] = new;
        let sync = self.obs.step;
        if self.tracer.is_enabled() {
            self.tracer.emit(obs::Event::MonitorReelected { node, new_rank: new });
        }
        Some((new, RecoveryEvent { sync, node, kind: RecoveryKind::MonitorReelected }))
    }

    /// Rebase the job's power budget (machine-level scheduling seam): the
    /// new value becomes the baseline for survivor renormalization, and
    /// the controller sees the share of it owned by the nodes currently
    /// alive.
    pub fn set_budget_w(&mut self, budget_w: f64) {
        self.initial_budget_w = Some(budget_w);
        let share = budget_w / self.world_nodes as f64;
        self.controller.set_budget_w(share * self.alive_nodes() as f64);
    }

    /// Record one node's feedback for the interval that is about to close:
    /// [`PowerManager::record_partition`] over one lane. Returns `false`
    /// when the sample is rejected.
    pub fn record(&mut self, interval: NodeInterval) -> bool {
        let NodeInterval { node, role, time_s, power_w, cap_w } = interval;
        self.record_partition(role, &[node], &[time_s], &[power_w], &[cap_w], &[]).is_empty()
    }

    /// Record one partition's feedback for the interval that is about to
    /// close, one lane per node: ids (ascending), times to arrival,
    /// measured powers and caps in force. The runtime calls this for each
    /// partition before `power_alloc`. A node listed in `skip` (ascending;
    /// its monitor missed the window) is not recorded and emits nothing.
    /// Any other lane is rejected when the node is dead or the reading is
    /// implausible (non-finite or non-positive time/power, power beyond
    /// `MAX_PLAUSIBLE_POWER_W`, 1 000 W, or a non-finite cap). Rejected
    /// samples never reach the controller — α = 1/(T·P) in Eq. 1 must only
    /// ever see finite, positive energy. An accepted sample's time gains
    /// the previous exchange's overhead. Returns the lanes not recorded,
    /// skipped or rejected, ascending.
    pub fn record_partition(
        &mut self,
        role: Role,
        nodes: &[usize],
        times: &[f64],
        powers: &[f64],
        caps: &[f64],
        skip: &[usize],
    ) -> &[usize] {
        let n = nodes.len();
        assert!(times.len() == n && powers.len() == n && caps.len() == n, "one lane per node");
        debug_assert!(nodes.is_sorted() && skip.is_sorted(), "nodes and skip ascend");
        debug_assert!(
            nodes.iter().all(|&k| self.roles.get(k) == Some(&role)),
            "role differs from init's"
        );
        self.rejected.clear();
        if skip.is_empty() && !self.tracer.is_enabled() {
            // The gate as branch-free folds: the readings (packed), then
            // liveness (a gather).
            let lanes = times.iter().zip(powers).zip(caps);
            let plausible = lanes.fold(true, |ok, ((&t, &p), &c)| ok & plausible(t, p, c));
            let alive = nodes.iter().fold(true, |ok, &k| ok & self.is_alive(k));
            if plausible & alive {
                let carry_s = self.carry_s;
                let lanes = nodes.iter().zip(times).zip(powers).zip(caps);
                self.obs.nodes.extend(lanes.map(|(((&node, &time_s), &power_w), &cap_w)| {
                    NodeInterval { node, role, time_s: time_s + carry_s, power_w, cap_w }
                }));
                return &self.rejected;
            }
        }
        let mut skip = skip.iter().peekable();
        for lane in 0..n {
            let node = nodes[lane];
            while skip.next_if(|&&k| k < node).is_some() {}
            let recorded = skip.peek() != Some(&&node)
                && self.record_lane(NodeInterval {
                    node,
                    role,
                    time_s: times[lane],
                    power_w: powers[lane],
                    cap_w: caps[lane],
                });
            if !recorded {
                self.rejected.push(lane);
            }
        }
        &self.rejected
    }

    /// One lane of [`PowerManager::record_partition`] with its trace event.
    fn record_lane(&mut self, interval: NodeInterval) -> bool {
        if !self.is_alive(interval.node)
            || !plausible(interval.time_s, interval.power_w, interval.cap_w)
        {
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::SampleRejected { node: interval.node });
            }
            return false;
        }
        if self.tracer.is_enabled() {
            self.tracer.emit(obs::Event::Sample {
                node: interval.node,
                role: interval.role.tag().into(),
                time_s: interval.time_s,
                power_w: interval.power_w,
                cap_w: interval.cap_w,
            });
        }
        self.obs.nodes.push(NodeInterval { time_s: interval.time_s + self.carry_s, ..interval });
        true
    }

    /// `poli_power_alloc()`: exchange measurements, consult the controller,
    /// return the decision and its overhead. Called immediately before each
    /// simulation↔analysis synchronization (paper §VI-C).
    pub fn power_alloc(&mut self) -> AllocOutcome {
        self.power_alloc_with(&ExchangeFaults::default())
    }

    /// `power_alloc` under injected exchange faults. Message loss drops
    /// the affected contributions (aggregation proceeds over the rest);
    /// collective timeouts are retried up to [`MAX_COLLECTIVE_RETRIES`]
    /// times, after which the exchange is abandoned for this interval and
    /// the caps in force are held.
    pub fn power_alloc_with(&mut self, faults: &ExchangeFaults) -> AllocOutcome {
        if self.obs.nodes.is_empty() {
            return AllocOutcome {
                allocation: None,
                overhead: SimDuration::ZERO,
                recoveries: Vec::new(),
            };
        }
        let (sync, n) = (self.obs.step, self.world_nodes);
        let mut recoveries = Vec::new();
        let (overhead, allocation) = if faults.failed_attempts > MAX_COLLECTIVE_RETRIES {
            // Abandon the exchange, hold the current caps, and charge the
            // wasted retries' time.
            recoveries.push(RecoveryEvent { sync, node: 0, kind: RecoveryKind::AllocationHeld });
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::AllocationHeld { sync });
            }
            (retried_gather_cost(n, MAX_COLLECTIVE_RETRIES), None)
        } else {
            if !faults.lost_nodes.is_empty() {
                drop_lost(&mut self.obs.nodes, &faults.lost_nodes);
                for &node in &faults.lost_nodes {
                    recoveries.push(RecoveryEvent {
                        sync,
                        node,
                        kind: RecoveryKind::SampleRejected,
                    });
                }
            }
            if faults.failed_attempts > 0 {
                recoveries.push(RecoveryEvent {
                    sync,
                    node: 0,
                    kind: RecoveryKind::CollectiveRetried,
                });
            }
            // Every monitor rank contributes its sample — an allgather over
            // the job's nodes — then the decision is broadcast.
            let overhead = retried_gather_cost(n, faults.failed_attempts)
                + SimDuration::from_secs_f64(DECIDE_S)
                + NET.bcast(n, DECISION_BYTES);
            (overhead, self.controller.on_sync(&self.obs))
        };
        // The allocation call's cost lands in the next interval's measured
        // times (paper §VI-B).
        self.carry_s = overhead.as_secs_f64();
        self.obs.step += 1;
        self.obs.nodes.clear();
        if self.tracer.is_enabled() {
            self.tracer.emit(obs::Event::ExchangeDone {
                sync,
                overhead_s: overhead.as_secs_f64(),
                decided: allocation.is_some(),
            });
        }
        AllocOutcome { allocation, overhead, recoveries }
    }
}

/// Whether one node's reading can enter Eq. 1, without a branch: finite,
/// positive time and power, power at most `MAX_PLAUSIBLE_POWER_W`, and a
/// finite cap.
#[inline]
fn plausible(time_s: f64, power_w: f64, cap_w: f64) -> bool {
    time_s.is_finite()
        & (time_s > 0.0)
        & power_w.is_finite()
        & (power_w > 0.0)
        & (power_w <= MAX_PLAUSIBLE_POWER_W)
        & cap_w.is_finite()
}

/// Drop every sample whose node is in `lost` (ascending): a lock-step walk
/// while the samples ascend by node, a search where one steps back.
fn drop_lost(samples: &mut Vec<NodeInterval>, lost: &[usize]) {
    debug_assert!(lost.is_sorted(), "lost nodes ascend");
    let mut i = 0;
    samples.retain(|s| {
        if i > 0 && lost[i - 1] >= s.node {
            i = lost.partition_point(|&k| k < s.node);
        }
        while lost.get(i).is_some_and(|&k| k < s.node) {
            i += 1;
        }
        lost.get(i) != Some(&s.node)
    });
}

/// Simulated cost of a measurement gather over `nodes` that times out
/// `failed_attempts` times before it succeeds: a timeout is detected only
/// well past the expected completion, so each failed attempt burns 10×
/// the healthy gather, and the final attempt pays the normal price.
fn retried_gather_cost(nodes: usize, failed_attempts: u32) -> SimDuration {
    let healthy = NET.allgather(nodes, SAMPLE_BYTES);
    healthy + healthy * 10.0 * u64::from(failed_attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::JobLayout;

    fn manager(controller: &str) -> PowerManager {
        // 8 ranks, 2 per node -> 4 nodes; nodes 0-1 sim, 2-3 analysis.
        let world = Communicator::world(JobLayout::new(8, 2));
        PowerManager::init(
            &world,
            |rank| if rank < 4 { Role::Simulation } else { Role::Analysis },
            PowerManagerConfig::with_controller(controller),
        )
        .expect("known controller")
    }

    fn feed(mgr: &mut PowerManager, t_sim: f64, t_ana: f64) {
        for node in 0..4usize {
            let role = if node < 2 { Role::Simulation } else { Role::Analysis };
            let t = if node < 2 { t_sim } else { t_ana };
            mgr.record(NodeInterval { node, role, time_s: t, power_w: 108.0, cap_w: 110.0 });
        }
    }

    #[test]
    fn init_designates_monitor_ranks_and_roles() {
        let mgr = manager("seesaw");
        assert_eq!(mgr.monitor_ranks(), &[0, 2, 4, 6]);
        assert_eq!(
            mgr.roles,
            &[Role::Simulation, Role::Simulation, Role::Analysis, Role::Analysis]
        );
    }

    #[test]
    fn power_alloc_without_feedback_is_noop() {
        let mut mgr = manager("seesaw");
        let out = mgr.power_alloc();
        assert!(out.allocation.is_none());
        assert!(out.overhead.is_zero());
        assert_eq!(mgr.sync_index(), 0);
    }

    #[test]
    fn seesaw_skips_step_zero_then_allocates() {
        let mut mgr = manager("seesaw");
        feed(&mut mgr, 4.0, 2.0);
        let first = mgr.power_alloc();
        assert!(first.allocation.is_none(), "sync 0 is outside the main loop");
        feed(&mut mgr, 4.0, 2.0);
        let second = mgr.power_alloc();
        let alloc = second.allocation.expect("w = 1 allocates every sync");
        assert!(alloc.sim_node_w > alloc.analysis_node_w);
        assert_eq!(mgr.sync_index(), 2);
    }

    #[test]
    fn overhead_is_positive_and_logged() {
        let mut mgr = manager("static");
        let tracer = obs::Tracer::enabled();
        mgr.set_tracer(&tracer);
        feed(&mut mgr, 1.0, 1.0);
        let out = mgr.power_alloc();
        assert!(out.overhead > SimDuration::ZERO);
        let logged: Vec<_> = tracer
            .events()
            .into_iter()
            .filter_map(|e| match e.ev {
                obs::Event::ExchangeDone { sync, overhead_s, .. } => Some((sync, overhead_s)),
                _ => None,
            })
            .collect();
        assert_eq!(logged, [(0, out.overhead.as_secs_f64())]);
    }

    #[test]
    fn overhead_charged_into_next_interval() {
        let mut mgr = manager("time-aware");
        feed(&mut mgr, 4.0, 2.0);
        let o1 = mgr.power_alloc();
        // Feed equal raw times; the observation the controller sees
        // includes the previous call's overhead (pinned bit for bit by
        // `tests/exchange_pin.rs`); here we just confirm repeated calls work.
        feed(&mut mgr, 4.0, 2.0);
        let o2 = mgr.power_alloc();
        assert!(o1.overhead > SimDuration::ZERO && o2.overhead > SimDuration::ZERO);
    }

    #[test]
    fn static_controller_never_allocates() {
        let mut mgr = manager("static");
        for _ in 0..5 {
            feed(&mut mgr, 3.0, 1.0);
            assert!(mgr.power_alloc().allocation.is_none());
        }
    }

    #[test]
    fn unknown_controller_is_a_typed_error() {
        let world = Communicator::world(JobLayout::new(8, 2));
        let Err(err) = PowerManager::init(
            &world,
            |_| Role::Simulation,
            PowerManagerConfig::with_controller("nonsense"),
        ) else {
            panic!("bogus name must be rejected");
        };
        assert_eq!(err.name, "nonsense");
        assert!(err.to_string().contains("seesaw"), "error lists valid names: {err}");
    }

    #[test]
    fn corrupt_samples_are_rejected_at_the_aggregation_boundary() {
        let mut mgr = manager("seesaw");
        let good = NodeInterval {
            node: 0,
            role: Role::Simulation,
            time_s: 4.0,
            power_w: 108.0,
            cap_w: 110.0,
        };
        assert!(mgr.record(good));
        assert!(!mgr.record(NodeInterval { time_s: f64::NAN, ..good }));
        assert!(!mgr.record(NodeInterval { power_w: 0.0, ..good }));
        assert!(!mgr.record(NodeInterval { power_w: f64::INFINITY, ..good }));
        assert!(!mgr.record(NodeInterval { power_w: 5_000.0, ..good }), "spike beyond TDP");
    }

    #[test]
    fn dead_node_is_excluded_and_budget_renormalized() {
        let mut mgr = manager("seesaw");
        assert_eq!(mgr.alive_nodes(), 4);
        let events = mgr.mark_node_dead(1);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].kind, faults::RecoveryKind::NodeExcluded);
        assert_eq!(events[1].kind, faults::RecoveryKind::BudgetRenormalized);
        assert_eq!(mgr.alive_nodes(), 3);
        assert!(!mgr.is_alive(1));
        // A record from the dead node is dropped.
        assert!(!mgr.record(NodeInterval {
            node: 1,
            role: Role::Simulation,
            time_s: 4.0,
            power_w: 108.0,
            cap_w: 110.0,
        }));
        // Killing it again is a no-op.
        assert!(mgr.mark_node_dead(1).is_empty());
        // Surviving nodes still drive allocations under the shrunk budget.
        for node in [0usize, 2, 3] {
            let role = if node < 2 { Role::Simulation } else { Role::Analysis };
            let t = if node < 2 { 4.0 } else { 2.0 };
            mgr.record(NodeInterval { node, role, time_s: t, power_w: 108.0, cap_w: 110.0 });
        }
        let _skip = mgr.power_alloc(); // sync 0 skipped by seesaw
        for node in [0usize, 2, 3] {
            let role = if node < 2 { Role::Simulation } else { Role::Analysis };
            let t = if node < 2 { 4.0 } else { 2.0 };
            mgr.record(NodeInterval { node, role, time_s: t, power_w: 108.0, cap_w: 110.0 });
        }
        let out = mgr.power_alloc();
        let alloc = out.allocation.expect("survivors still allocate");
        // 1 sim + 2 analysis survivors, budget 330 W.
        let total = alloc.sim_node_w + 2.0 * alloc.analysis_node_w;
        assert!(total <= 330.0 + 1e-6, "renormalized budget respected: {total}");
    }

    #[test]
    fn monitor_death_promotes_the_next_rank_on_the_node() {
        let mut mgr = manager("seesaw"); // 8 ranks, 2 per node
        assert_eq!(mgr.monitor_ranks(), &[0, 2, 4, 6]);
        let (new, ev) = mgr.mark_monitor_dead(2).expect("spare rank exists");
        assert_eq!(new, 5, "node 2's ranks are {{4, 5}}; 5 takes over");
        assert_eq!(ev.kind, faults::RecoveryKind::MonitorReelected);
        assert_eq!(mgr.monitor_ranks(), &[0, 2, 5, 6]);
        // With one rank per node there is nobody to promote.
        let world = Communicator::world(JobLayout::new(4, 1));
        let mut single = PowerManager::init(
            &world,
            |_| Role::Simulation,
            PowerManagerConfig::with_controller("static"),
        )
        .expect("known controller");
        assert!(single.mark_monitor_dead(0).is_none());
    }

    #[test]
    fn second_monitor_death_on_same_node_never_reelects_the_dead_rank() {
        let mut mgr = manager("seesaw"); // 8 ranks, 2 per node
        let (first, _) = mgr.mark_monitor_dead(2).expect("spare rank exists");
        assert_eq!(first, 5, "node 2's ranks are {{4, 5}}; 5 takes over");
        // Rank 5 dies too: the only other rank (4) is already dead, so the
        // node has no live monitor left — the old modulo walk re-elected 4.
        assert!(
            mgr.mark_monitor_dead(2).is_none(),
            "no live rank may be promoted after both have died"
        );
        // Three-rank nodes walk past the first casualty to the next live
        // rank, then exhaust.
        let world = Communicator::world(JobLayout::new(6, 3));
        let mut wide = PowerManager::init(
            &world,
            |_| Role::Simulation,
            PowerManagerConfig::with_controller("static"),
        )
        .expect("known controller");
        assert_eq!(wide.monitor_ranks(), &[0, 3]);
        let (a, _) = wide.mark_monitor_dead(1).expect("rank 4 promotes");
        assert_eq!(a, 4);
        let (b, _) = wide.mark_monitor_dead(1).expect("rank 5 promotes, skipping dead 3");
        assert_eq!(b, 5);
        assert!(wide.mark_monitor_dead(1).is_none(), "all three ranks dead");
    }

    #[test]
    fn set_budget_w_rebases_renormalization_baseline() {
        let mut mgr = manager("seesaw");
        assert_eq!(mgr.initial_budget_w, Some(440.0), "paper default: 110 W x 4 nodes");
        mgr.set_budget_w(600.0);
        assert_eq!(mgr.initial_budget_w, Some(600.0));
        // A node death renormalizes against the rebased budget.
        mgr.mark_node_dead(3);
        feed(&mut mgr, 4.0, 2.0);
        let _skip = mgr.power_alloc();
        for node in 0..3usize {
            let role = if node < 2 { Role::Simulation } else { Role::Analysis };
            let t = if node < 2 { 4.0 } else { 2.0 };
            mgr.record(NodeInterval { node, role, time_s: t, power_w: 108.0, cap_w: 110.0 });
        }
        let alloc = mgr.power_alloc().allocation.expect("survivors allocate");
        let total = 2.0 * alloc.sim_node_w + alloc.analysis_node_w;
        assert!(total <= 450.0 + 1e-6, "3 alive x 150 W share: {total}");
        assert!(total > 330.0, "rebased budget (not the init 440) is in play: {total}");
    }

    /// One generated partition: ascending node ids with gaps, every lane's
    /// time, power and cap drawn from plausible values and each corruption
    /// the gate knows, a few dead nodes and a sorted skip list with repeats
    /// (or, with `clean`, every lane plausible, alive and unskipped).
    struct Lanes {
        nodes: Vec<usize>,
        times: Vec<f64>,
        powers: Vec<f64>,
        caps: Vec<f64>,
        dead: Vec<usize>,
        skip: Vec<usize>,
    }

    fn lanes(rng: &mut des::Rng, len: usize, clean: bool) -> Lanes {
        let mut nodes = Vec::with_capacity(len);
        let mut node = 0;
        while nodes.len() < len {
            node += rng.next_below(3) as usize;
            nodes.push(node);
            node += 1;
        }
        let corrupt = |rng: &mut des::Rng, good: f64| {
            let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0, 1000.5, 5e3];
            if clean || rng.next_f64() < 0.8 {
                good
            } else {
                odd[rng.next_below(odd.len() as u64) as usize]
            }
        };
        let times = (0..len)
            .map(|_| {
                let good = rng.uniform(1e-6, 9.0);
                corrupt(rng, good)
            })
            .collect();
        let powers = (0..len)
            .map(|_| {
                let good = rng.uniform(50.0, 1000.0);
                corrupt(rng, good)
            })
            .collect();
        let caps = (0..len)
            .map(|_| if clean || rng.next_f64() < 0.95 { 110.0 } else { f64::NAN })
            .collect();
        let pick = |rng: &mut des::Rng, p: f64| -> Vec<usize> {
            let mut picked: Vec<usize> = (0..=node)
                .filter(|_| !clean && rng.next_f64() < p)
                .flat_map(|k| std::iter::repeat_n(k, 1 + (k % 2)))
                .collect();
            picked.sort_unstable();
            picked
        };
        let dead = pick(rng, 0.05);
        let skip = pick(rng, 0.1);
        Lanes { nodes, times, powers, caps, dead, skip }
    }

    /// A manager over `n` simulation nodes, its dead nodes marked, the
    /// previous exchange's overhead set, traced or not.
    fn manager_over(n: usize, dead: &[usize], traced: bool) -> (PowerManager, obs::Tracer) {
        let world = Communicator::world(JobLayout::new(2 * n.max(1), 2));
        let cfg = PowerManagerConfig::with_controller("seesaw");
        let mut mgr = PowerManager::init(&world, |_| Role::Simulation, cfg).expect("known");
        let tracer = if traced { obs::Tracer::enabled() } else { obs::Tracer::off() };
        mgr.set_tracer(&tracer);
        for &node in dead {
            mgr.mark_node_dead(node);
        }
        mgr.carry_s = 1.25e-4;
        (mgr, tracer)
    }

    fn bits(mgr: &PowerManager) -> Vec<[u64; 4]> {
        let sample = |s: &NodeInterval| {
            [s.node as u64, s.time_s.to_bits(), s.power_w.to_bits(), s.cap_w.to_bits()]
        };
        mgr.obs.nodes.iter().map(sample).collect()
    }

    /// `record_partition` is `record` node by node: the same samples bit
    /// for bit, the same lanes left out (a skipped lane is left out without
    /// a `record` call), and the same trace, event for event.
    #[test]
    fn record_partition_matches_record_per_node() {
        let mut rng = des::Rng::seed_from_u64(0x009E_C04D);
        for len in [0usize, 1, 2, 7, 8, 63, 64, 65, 4392] {
            // Corrupt with skips, corrupt without (the gate's own fallback),
            // clean (the one-extend path), each untraced and traced.
            let variants = [(false, true), (false, false), (true, false)];
            for (case, ((clean, skips), traced)) in
                variants.into_iter().flat_map(|v| [(v, false), (v, true)]).enumerate()
            {
                let mut l = lanes(&mut rng, len, clean);
                if !skips {
                    l.skip.clear();
                }
                let world = l.nodes.last().map_or(1, |&k| k + 1);
                let (mut whole, whole_trace) = manager_over(world, &l.dead, traced);
                let (mut each, each_trace) = manager_over(world, &l.dead, traced);
                let rejected = whole
                    .record_partition(
                        Role::Simulation,
                        &l.nodes,
                        &l.times,
                        &l.powers,
                        &l.caps,
                        &l.skip,
                    )
                    .to_vec();
                let mut want = Vec::new();
                for lane in 0..len {
                    let iv = NodeInterval {
                        node: l.nodes[lane],
                        role: Role::Simulation,
                        time_s: l.times[lane],
                        power_w: l.powers[lane],
                        cap_w: l.caps[lane],
                    };
                    if l.skip.contains(&iv.node) || !each.record(iv) {
                        want.push(lane);
                    }
                }
                let what = format!("len {len} case {case}");
                assert_eq!(rejected, want, "{what}: rejected lanes");
                assert_eq!(bits(&whole), bits(&each), "{what}: samples");
                assert_eq!(whole_trace.to_jsonl(), each_trace.to_jsonl(), "{what}: trace");
                if clean {
                    assert!(rejected.is_empty() && whole.obs.nodes.len() == len, "{what}");
                }
            }
        }
    }

    /// The lock-step drop of lost contributions removes exactly what a
    /// `contains` scan removes, at Theta's size with 2 000 losses (repeats
    /// included), for samples in node order and shuffled.
    #[test]
    fn losing_2000_of_4392_contributions_drops_what_contains_drops() {
        let mut rng = des::Rng::seed_from_u64(0x1057);
        let sample = |node: usize| NodeInterval {
            node,
            role: if node < 2196 { Role::Simulation } else { Role::Analysis },
            time_s: 1.0 + node as f64 * 1e-3,
            power_w: 100.0 + (node % 17) as f64,
            cap_w: 110.0,
        };
        let mut lost: Vec<usize> = (0..2000).map(|_| rng.next_below(4500) as usize).collect();
        lost.sort_unstable();
        let ascending: Vec<NodeInterval> = (0..4392).map(sample).collect();
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for samples in [ascending, shuffled] {
            let mut want = samples.clone();
            want.retain(|s| !lost.contains(&s.node));
            let mut got = samples;
            drop_lost(&mut got, &lost);
            let bits = |v: &[NodeInterval]| {
                v.iter()
                    .map(|s| (s.node, s.role, s.time_s.to_bits(), s.power_w.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert!(want.len() < 4392 - 1500, "the losses must bite: {} kept", want.len());
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn message_loss_degrades_to_partial_aggregation() {
        let mut mgr = manager("seesaw");
        feed(&mut mgr, 4.0, 2.0);
        let _skip = mgr.power_alloc();
        feed(&mut mgr, 4.0, 2.0);
        let faults = ExchangeFaults { lost_nodes: vec![3], failed_attempts: 0 };
        let out = mgr.power_alloc_with(&faults);
        assert!(out.allocation.is_some(), "3 of 4 samples still aggregate");
        assert!(out
            .recoveries
            .iter()
            .any(|r| r.kind == faults::RecoveryKind::SampleRejected && r.node == 3));
    }

    #[test]
    fn losing_a_whole_partition_holds_the_allocation() {
        let mut mgr = manager("seesaw");
        feed(&mut mgr, 4.0, 2.0);
        let _skip = mgr.power_alloc();
        feed(&mut mgr, 4.0, 2.0);
        // Both analysis monitors lost: no analysis partition this round.
        let faults = ExchangeFaults { lost_nodes: vec![2, 3], failed_attempts: 0 };
        let out = mgr.power_alloc_with(&faults);
        assert!(out.allocation.is_none(), "partial partition cannot allocate");
    }

    #[test]
    fn collective_timeout_within_budget_is_retried() {
        let mut mgr = manager("seesaw");
        feed(&mut mgr, 4.0, 2.0);
        let healthy = mgr.power_alloc().overhead;
        feed(&mut mgr, 4.0, 2.0);
        let faults = ExchangeFaults { lost_nodes: Vec::new(), failed_attempts: 2 };
        let out = mgr.power_alloc_with(&faults);
        assert!(out.allocation.is_some(), "retry succeeded, decision made");
        assert!(out.overhead > healthy, "retries cost time: {:?}", out.overhead);
        assert!(out.recoveries.iter().any(|r| r.kind == faults::RecoveryKind::CollectiveRetried));
    }

    #[test]
    fn collective_timeout_beyond_retries_holds_the_caps() {
        let mut mgr = manager("seesaw");
        feed(&mut mgr, 4.0, 2.0);
        let _skip = mgr.power_alloc();
        feed(&mut mgr, 4.0, 2.0);
        let good = mgr.power_alloc();
        assert!(good.allocation.is_some(), "healthy round allocates");
        feed(&mut mgr, 4.0, 2.0);
        let faults =
            ExchangeFaults { lost_nodes: Vec::new(), failed_attempts: MAX_COLLECTIVE_RETRIES + 1 };
        let out = mgr.power_alloc_with(&faults);
        // No new allocation: the caller keeps the caps in force.
        assert!(out.allocation.is_none(), "exchange abandoned");
        assert!(out.recoveries.iter().any(|r| r.kind == faults::RecoveryKind::AllocationHeld));
        assert!(out.overhead > good.overhead, "wasted retries are charged");
        // The next healthy exchange decides again.
        feed(&mut mgr, 4.0, 2.0);
        assert!(mgr.power_alloc().allocation.is_some());
    }

    #[test]
    fn retried_collective_cost_grows_with_failures() {
        let healthy = retried_gather_cost(8, 0);
        assert_eq!(healthy, NET.allgather(8, SAMPLE_BYTES));
        let one = retried_gather_cost(8, 1);
        let three = retried_gather_cost(8, 3);
        assert!(one > healthy);
        assert!(three > one);
        // Each failure costs 10× the healthy latency.
        let per_failure = (three - one).as_secs_f64() / 2.0;
        assert!((per_failure - healthy.as_secs_f64() * 10.0).abs() < 1e-12);
    }

    /// Every healthy exchange charges `allgather(n, 24) + compute +
    /// bcast(n, 16)` over the job's nodes, at every sync.
    #[test]
    fn healthy_exchange_charges_the_collective_cost_formula_exactly() {
        for nodes in [4usize, 128] {
            let world = Communicator::world(JobLayout::new(2 * nodes, 2));
            let role = move |node: usize| {
                if node < nodes / 2 {
                    Role::Simulation
                } else {
                    Role::Analysis
                }
            };
            let cfg = PowerManagerConfig::with_controller("time-aware");
            let mut mgr = PowerManager::init(&world, |rank| role(rank / 2), cfg).expect("known");
            let want = NET.allgather(nodes, 24)
                + SimDuration::from_secs_f64(5.0e-6)
                + NET.bcast(nodes, 16);
            for sync in 0..1000u64 {
                for node in 0..nodes {
                    let time_s = if node < nodes / 2 { 4.0 } else { 2.0 + 1e-3 * sync as f64 };
                    let iv = NodeInterval {
                        node,
                        role: role(node),
                        time_s,
                        power_w: 108.0,
                        cap_w: 110.0,
                    };
                    assert!(mgr.record(iv));
                }
                assert_eq!(mgr.power_alloc().overhead, want, "sync {sync}");
            }
            assert_eq!(mgr.sync_index(), 1000);
        }
    }

    #[test]
    fn overhead_grows_with_job_size() {
        let small = {
            let world = Communicator::world(JobLayout::new(8, 2));
            let mut m = PowerManager::init(
                &world,
                |r| if r < 4 { Role::Simulation } else { Role::Analysis },
                PowerManagerConfig::with_controller("static"),
            )
            .expect("known controller");
            for node in 0..4 {
                m.record(NodeInterval {
                    node,
                    role: if node < 2 { Role::Simulation } else { Role::Analysis },
                    time_s: 1.0,
                    power_w: 100.0,
                    cap_w: 110.0,
                });
            }
            m.power_alloc().overhead
        };
        let big = {
            let world = Communicator::world(JobLayout::new(2048, 2));
            let mut m = PowerManager::init(
                &world,
                |r| if r < 1024 { Role::Simulation } else { Role::Analysis },
                PowerManagerConfig::with_controller("static"),
            )
            .expect("known controller");
            for node in 0..1024 {
                m.record(NodeInterval {
                    node,
                    role: if node < 512 { Role::Simulation } else { Role::Analysis },
                    time_s: 1.0,
                    power_w: 100.0,
                    cap_w: 110.0,
                });
            }
            m.power_alloc().overhead
        };
        assert!(big > small, "1024-node exchange must cost more: {big} vs {small}");
    }
}
