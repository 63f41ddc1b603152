//! The coupled runtime: executes a Verlet-Splitanalysis workload on the
//! simulated cluster under a power controller.
//!
//! Per synchronization interval (j Verlet steps):
//!
//! 1. each simulation node executes its per-step phases under its cap;
//! 2. each analysis node executes the sync step's analysis phases;
//! 3. whichever partition arrives first *waits*, drawing idle power — the
//!    slack SeeSAw exists to harvest;
//! 4. per-node time (to arrival) and measured power (active window, noisy)
//!    are recorded into PoLiMER, which runs the controller;
//! 5. new caps are requested (honouring RAPL's actuation latency) and the
//!    allocation overhead extends the interval, exactly as the paper
//!    accounts it (§VI-B).
//!
//! An interval works over one survivor column, the live nodes with the
//! simulation's lanes first and the analysis lanes from a split index,
//! and columns parallel to it. Each partition's lanes walk its phase list
//! through [`Cluster::walk`], which draws the phase jitter it consumes,
//! into one arrival column; the rendezvous, the feedback and the cap
//! requests read the same lanes.

use crate::config::JobConfig;
use crate::result::{RunResult, SyncRecord};
use des::{SimDuration, SimTime};
use faults::{FaultEvent, FaultKind, RecoveryEvent, RecoveryKind};
use mdsim::workload::{AnalyticWorkload, WorkloadGen};
use mpisim::{Communicator, JobLayout};
use polimer::{ExchangeFaults, PowerManager};
use seesaw::{Controller, Limits, Role, UnknownController};
use theta_sim::{Cluster, MachineConfig, NoiseSigmas, Walk, Work};

/// Minimum accounted interval time (guards division by zero on degenerate
/// configurations).
const MIN_INTERVAL_S: f64 = 1e-9;

/// Build the controller described by a job config. Unrecognized names
/// yield a typed [`UnknownController`] error instead of a panic.
pub fn build_controller(cfg: &JobConfig) -> Result<Box<dyn Controller>, UnknownController> {
    let limits = Limits { min_w: cfg.machine.min_cap_w, max_w: cfg.machine.max_cap_w() };
    seesaw::controller_by_name(&cfg.controller, cfg.budget_w(), cfg.window, limits)
}

/// How an interval walks a partition: [`Cluster::walk`]; tests substitute
/// the node-major reference.
type Advance = fn(
    &mut Cluster,
    &MachineConfig,
    &[usize],
    &[f64],
    SimTime,
    &[Work],
    &mut Walk,
    &mut Vec<SimTime>,
);

/// The runtime for one job.
///
/// Runs either to completion via [`Runtime::run`] or one synchronization
/// interval at a time via [`Runtime::step_sync`] — the seam the machine
/// scheduler uses to interleave many jobs and rebase their budgets
/// between epochs.
pub struct Runtime {
    cfg: JobConfig,
    cluster: Cluster,
    manager: PowerManager,
    workload: Box<dyn WorkloadGen>,
    sim_nodes: Vec<usize>,
    ana_nodes: Vec<usize>,
    /// Every node id, cached so per-epoch energy queries allocate nothing.
    all_nodes: Vec<usize>,
    /// The machine model, cached off the cluster so the interval loop never
    /// clones it.
    machine: MachineConfig,
    tracer: obs::Tracer,
    // Stepping state (owned here so `run` is just a step loop).
    t: SimTime,
    next_sync: u64,
    syncs: Vec<SyncRecord>,
    fault_log: Vec<FaultEvent>,
    recovery_log: Vec<RecoveryEvent>,
    halted: bool,
    scratch: SyncScratch,
}

/// The buffers one interval works over, owned by the runtime and reused,
/// so that once they have grown to the job's size a fault-free
/// [`Runtime::step_sync`] allocates nothing.
#[derive(Default)]
struct SyncScratch {
    /// This interval's slice of the fault plan.
    events: Vec<FaultEvent>,
    /// The surviving nodes, simulation partition first (so ascending by
    /// node): one lane each, through the walk, the rendezvous, the
    /// feedback and the cap requests. Each one's work stretch (an injected
    /// straggler fault) and arrival.
    nodes: Vec<usize>,
    stretch: Vec<f64>,
    arrivals: Vec<SimTime>,
    /// The simulation's phases over the interval's steps, flattened in
    /// step order, and the sync step's analysis phases.
    sim_phases: Vec<Work>,
    ana_phases: Vec<Work>,
    /// The walk's scratch.
    walk: Walk,
    /// The feedback columns, one lane per survivor: time to arrival, mean
    /// power over its active window (true, then as measured), and the cap
    /// in force during the interval, then the cap it is asked to take.
    times: Vec<f64>,
    power: Vec<f64>,
    targets: Vec<f64>,
    /// Fault-list entries searched for plus lanes walked against a fault
    /// list: at most nodes + faults per interval.
    fault_lookups: u64,
    /// The interval's arrival events, recorded as one batch.
    arrival_events: Vec<obs::TraceEvent>,
}

impl Runtime {
    /// Construct with the default (analytic) workload generator. Fails
    /// with [`UnknownController`] if the configured name is not valid.
    pub fn new(cfg: JobConfig) -> Result<Self, UnknownController> {
        let workload = Box::new(AnalyticWorkload::new(cfg.workload.clone()));
        Self::with_workload(cfg, workload)
    }

    /// Construct with an explicit workload generator (e.g.
    /// [`mdsim::workload::MeasuredWorkload`]).
    pub fn with_workload(
        cfg: JobConfig,
        workload: Box<dyn WorkloadGen>,
    ) -> Result<Self, UnknownController> {
        let controller = build_controller(&cfg)?;
        Ok(Self::assemble(cfg, workload, controller))
    }

    /// Construct with an explicitly built controller (ablations that need
    /// non-default controller parameters, e.g. the Eq. 4 EWMA variants).
    pub fn with_controller(cfg: JobConfig, controller: Box<dyn Controller>) -> Self {
        let workload = Box::new(AnalyticWorkload::new(cfg.workload.clone()));
        Self::assemble(cfg, workload, controller)
    }

    fn assemble(
        cfg: JobConfig,
        workload: Box<dyn WorkloadGen>,
        controller: Box<dyn Controller>,
    ) -> Self {
        let spec = &cfg.workload;
        let n = spec.nodes_total();
        let sim_nodes: Vec<usize> = (0..spec.sim_nodes).collect();
        let ana_nodes: Vec<usize> = (spec.sim_nodes..n).collect();

        // Initial caps: equal split by default, or the configured unbalanced
        // start (Fig. 7).
        let caps: Vec<f64> = (0..n)
            .map(|i| if i < spec.sim_nodes { cfg.sim_cap0_w() } else { cfg.analysis_cap0_w() })
            .collect();
        let sigmas =
            if cfg.quiet_noise { NoiseSigmas::zero() } else { NoiseSigmas::for_mode(cfg.cap_mode) };
        let mut cluster =
            Cluster::with_caps_sigmas(cfg.machine.clone(), &caps, cfg.cap_mode, sigmas, cfg.seed);
        if cfg.record_traces {
            cluster.keep_draw_log();
        }

        // Two ranks per node: the monitor plus a peer, so monitor death
        // has a surviving rank to promote. Per-node times are already
        // slowest-rank aggregates, so the extra rank adds no bookkeeping
        // and the measurement exchange still runs over one rank per node.
        let world = Communicator::world(JobLayout::new(2 * n, 2));
        let sim_count = spec.sim_nodes;
        let manager = PowerManager::init_with_controller(
            &world,
            move |rank| if rank / 2 < sim_count { Role::Simulation } else { Role::Analysis },
            controller,
        );
        let sync_count = spec.sync_count();
        let all_nodes: Vec<usize> = (0..n).collect();
        let machine = cfg.machine.clone();
        Runtime {
            cfg,
            cluster,
            manager,
            workload,
            sim_nodes,
            ana_nodes,
            all_nodes,
            machine,
            tracer: obs::Tracer::off(),
            t: SimTime::ZERO,
            next_sync: 1,
            syncs: Vec::with_capacity(sync_count as usize),
            fault_log: Vec::new(),
            recovery_log: Vec::new(),
            halted: false,
            scratch: SyncScratch::default(),
        }
    }

    /// Attach a trace sink to every layer of the stack: the cluster's
    /// nodes (phase/wait spans, cap actuation), the power manager
    /// (samples, exchanges, degradation) and — through it — the
    /// controller (decision internals). The runtime itself records sync
    /// epochs and drives the shared sim-time clock.
    pub fn set_tracer(&mut self, tracer: &obs::Tracer) {
        self.tracer = tracer.clone();
        self.cluster.set_tracer(tracer);
        self.manager.set_tracer(tracer);
        // Pre-size the event buffer so steady-state recording never
        // reallocates: per sync, every node records its phase spans (~one
        // per step-phase), two waits, an arrival, a cap request and a
        // sample, plus a dozen controller-level events.
        let spec = &self.cfg.workload;
        let per_node = 4 * spec.sync_every as usize + 8;
        let estimate = spec.sync_count() as usize * (spec.nodes_total() * per_node + 12) + 64;
        self.tracer.reserve(estimate.min(1 << 24));
    }

    /// Execute the run to completion.
    pub fn run(mut self) -> RunResult {
        while self.step_sync() {
            self.compact_history();
        }
        self.finish()
    }

    /// Simulated time reached so far (the job's own clock).
    pub fn now(&self) -> SimTime {
        self.t
    }

    /// Whether the job has executed every synchronization (or halted early
    /// because a partition lost all survivors).
    pub fn is_done(&self) -> bool {
        self.halted || self.next_sync > self.cfg.workload.sync_count()
    }

    /// Synchronizations completed so far.
    pub fn completed_syncs(&self) -> u64 {
        self.next_sync - 1
    }

    /// Rebase the job's power budget between epochs (machine-level
    /// scheduling): flows through the manager's renormalization seam into
    /// the controller, taking effect at the next allocation.
    pub fn set_budget_w(&mut self, budget_w: f64) {
        self.manager.set_budget_w(budget_w);
    }

    /// Energy consumed by all the job's nodes over `[t0, now)`, joules —
    /// the machine governor's feedback metric (`E = T·P`). `t0` is `ZERO`,
    /// the last [`Runtime::compact_history`] instant or now.
    pub fn energy_since(&self, t0: SimTime) -> f64 {
        self.cluster.total_energy(&self.all_nodes, t0, self.t.max(t0))
    }

    /// Start the next [`Runtime::energy_since`] window at the current
    /// clock (see [`Cluster::compact_history`]). [`Runtime::run`] calls
    /// this between intervals; an embedder stepping the job via
    /// [`Runtime::step_sync`] calls it once its own windowed reads of the
    /// elapsed span are done (the machine scheduler does so after each
    /// epoch's [`Runtime::energy_since`]).
    pub fn compact_history(&mut self) {
        self.cluster.compact_history(self.t);
    }

    /// Heap bytes held by the cluster's per-node state (memory-bound tests).
    pub fn retained_bytes(&self) -> usize {
        self.cluster.retained_bytes()
    }

    /// Execute one synchronization interval. Returns `false` when the job
    /// is already done (nothing was executed), `true` otherwise.
    pub fn step_sync(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        let sync_k = self.next_sync;
        self.next_sync += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        self.run_interval(sync_k, &mut scratch, Cluster::walk);
        self.scratch = scratch;
        true
    }

    /// The body of [`Runtime::step_sync`] for the 1-based interval `sync_k`;
    /// `advance` walks each partition through its phases.
    fn run_interval(&mut self, sync_k: u64, sc: &mut SyncScratch, advance: Advance) {
        let j = self.cfg.workload.sync_every;
        let t0 = self.t;
        // Fault plans index intervals 0-based; sync_k is 1-based.
        let sync0 = sync_k - 1;
        self.tracer.set_now(t0);
        if self.tracer.is_enabled() {
            if sync_k == 1 {
                // Run context header: what the audit layer checks budget
                // conservation and cap ranges against.
                self.tracer.emit(obs::Event::RunStart {
                    sim_nodes: self.sim_nodes.len(),
                    analysis_nodes: self.ana_nodes.len(),
                    budget_w: self.cfg.budget_w(),
                    min_cap_w: self.machine.min_cap_w,
                    max_cap_w: self.machine.max_cap_w(),
                    actuation_ns: self.machine.cap_actuation.as_nanos(),
                });
            }
            self.tracer.emit(obs::Event::SyncStart { sync: sync_k });
        }
        let faults_before = self.fault_log.len();
        let recoveries_before = self.recovery_log.len();
        sc.events.clear();
        sc.events.extend_from_slice(self.cfg.faults.at(sync0));
        let sf = self.inject_faults(&sc.events);
        // A partition left without survivors halts the job below, before
        // any sample or exchange: of this interval's faults only the ones
        // that killed nodes took effect.
        let alive = |nodes: &[usize]| nodes.iter().any(|&n| self.manager.is_alive(n));
        if self.fault_log.len() > faults_before
            && !(alive(&self.sim_nodes) && alive(&self.ana_nodes))
        {
            let mut applied = self.fault_log.split_off(faults_before);
            applied.retain(|ev| matches!(ev.kind, FaultKind::NodeCrash | FaultKind::MonitorDeath));
            self.fault_log.append(&mut applied);
        }
        if self.tracer.is_enabled() {
            // Trace-side sync indices are uniformly 1-based (matching
            // SyncStart/SyncEnd); only the fault *plan* and the result
            // logs keep the 0-based interval numbering.
            for ev in &self.fault_log[faults_before..] {
                self.tracer.emit(obs::Event::Fault {
                    sync: sync_k,
                    node: ev.node,
                    tag: ev.kind.tag().into(),
                });
            }
        }

        // --- Watchdog: a partition with no survivors ends the coupled
        // job gracefully (nothing left to synchronize against). The
        // interval still closes with a balanced SyncEnd/SyncEnergy —
        // zero overhead, zero energy, no time elapsed — so the trace
        // needs no halted-run special case downstream.
        // Each column beside the survivors is sized exactly, once: regrowing
        // one moves a traced job's peak RSS (the heap's layout).
        sc.nodes.clear();
        sc.nodes.extend_from_slice(&self.all_nodes);
        sc.nodes.retain(|&node| self.manager.is_alive(node));
        let ns = sc.nodes.partition_point(|&node| node < self.sim_nodes.len());
        sc.stretch.clear();
        sc.stretch.resize(sc.nodes.len(), 1.0);
        for &(node, factor) in firsts(&sf.straggle, |&(n, _)| n) {
            if let Some(lane) = lane_of(&sc.nodes, node, &mut sc.fault_lookups) {
                sc.stretch[lane] = factor;
            }
        }
        if ns == 0 || ns == sc.nodes.len() {
            self.halted = true;
            if self.tracer.is_enabled() {
                self.cluster.flush_trace();
                for rec in &self.recovery_log[recoveries_before..] {
                    self.tracer.emit(obs::Event::Recovery {
                        sync: sync_k,
                        node: rec.node,
                        tag: rec.kind.tag().into(),
                    });
                }
                self.tracer.emit(obs::Event::SyncEnd { sync: sync_k, overhead_s: 0.0 });
                self.tracer.emit(obs::Event::SyncEnergy { sync: sync_k, energy_j: 0.0 });
            }
            return;
        }

        // Gather this interval's per-step work (simulation runs all j
        // steps, flattened in step order — exactly the order the per-node
        // walk runs them; analysis phases are the sync step's, i.e. the
        // last step's).
        sc.sim_phases.clear();
        sc.ana_phases.clear();
        for step in (sync_k - 1) * j + 1..=sync_k * j {
            self.workload.step_phases_into(step, &mut sc.sim_phases, &mut sc.ana_phases);
        }

        // --- Each partition executes its phases.
        let lanes = [0..ns, ns..sc.nodes.len()];
        sc.arrivals.clear();
        sc.arrivals.reserve_exact(sc.nodes.len());
        for (lanes, phases) in lanes.clone().into_iter().zip([&sc.sim_phases, &sc.ana_phases]) {
            let (nodes, stretch) = (&sc.nodes[lanes.clone()], &sc.stretch[lanes]);
            let (cluster, walk) = (&mut self.cluster, &mut sc.walk);
            advance(cluster, &self.machine, nodes, stretch, t0, phases, walk, &mut sc.arrivals);
        }
        let role = |lane: usize| if lane < ns { Role::Simulation } else { Role::Analysis };

        // --- Rendezvous: the earlier side waits.
        let latest =
            |lanes: std::ops::Range<usize>| sc.arrivals[lanes].iter().copied().max().unwrap_or(t0);
        let [sim_latest, ana_latest] = lanes.clone().map(latest);
        let rendezvous = sim_latest.max(ana_latest);
        let sim_time = sim_latest.saturating_since(t0).as_secs_f64();
        let ana_time = ana_latest.saturating_since(t0).as_secs_f64();
        let slack_den = sim_time.max(ana_time).max(MIN_INTERVAL_S);
        if self.tracer.is_enabled() {
            let arrived = sc.nodes.iter().zip(&sc.arrivals).enumerate();
            sc.arrival_events.extend(arrived.map(|(lane, (&node, &arrival))| obs::TraceEvent {
                t: arrival,
                ev: obs::Event::Arrival {
                    sync: sync_k,
                    node,
                    role: role(lane).tag().into(),
                    time_s: arrival.saturating_since(t0).as_secs_f64(),
                },
            }));
            self.tracer.emit_drain(&mut sc.arrival_events);
            self.tracer.emit_at(
                rendezvous,
                obs::Event::Rendezvous {
                    sync: sync_k,
                    sim_time_s: sim_time,
                    analysis_time_s: ana_time,
                    slack: (sim_time - ana_time).abs() / slack_den,
                },
            );
        }
        // Manager/controller events below are stamped at the rendezvous.
        self.tracer.set_now(rendezvous);

        // --- Feedback: each node waits out the rendezvous, then reports
        // time to arrival, measured power over the active window and the
        // current requested cap, as columns. Monitor-side corruption
        // (injected NaN/spike/dropout) happens here, before PoLiMER's
        // plausibility gate — rejected samples never reach Eq. 1.
        sc.power.clear();
        self.cluster.rendezvous(t0, rendezvous, &sc.nodes, &sc.arrivals, &mut sc.power);
        sc.times.clear();
        sc.times.extend(
            sc.arrivals.iter().map(|a| a.saturating_since(t0).as_secs_f64().max(MIN_INTERVAL_S)),
        );
        sc.targets.clear();
        sc.targets.extend(sc.nodes.iter().map(|&node| self.cluster.requested_cap(node)));
        // The record's true mean power and cap in force, before the noise
        // and the new caps overwrite them.
        let [(mut sim_power_w, sim_cap_w), (mut ana_power_w, ana_cap_w)] =
            lanes.clone().map(|l| means(&sc.power[l.clone()], &sc.targets[l]));
        self.cluster.noise_mut().noisy_powers(&mut sc.power);
        for &node in firsts(&sf.nan, |&n| n) {
            if let Some(lane) = lane_of(&sc.nodes, node, &mut sc.fault_lookups) {
                sc.power[lane] = f64::NAN;
            }
        }
        for &(node, factor) in firsts(&sf.spike, |&(n, _)| n) {
            if let Some(lane) = lane_of(&sc.nodes, node, &mut sc.fault_lookups) {
                sc.power[lane] *= factor;
            }
        }
        // A dropout (the monitor missed the window) records nothing: the
        // manager walks each partition's dropouts in lock-step with its
        // lanes.
        let cut = sf.dropout.partition_point(|&n| n < self.sim_nodes.len());
        for (role, lanes, skip) in [
            (Role::Simulation, 0..ns, &sf.dropout[..cut]),
            (Role::Analysis, ns..sc.nodes.len(), &sf.dropout[cut..]),
        ] {
            if !skip.is_empty() {
                sc.fault_lookups += (lanes.len() + skip.len()) as u64;
            }
            let nodes = &sc.nodes[lanes.clone()];
            let rejected = self.manager.record_partition(
                role,
                nodes,
                &sc.times[lanes.clone()],
                &sc.power[lanes.clone()],
                &sc.targets[lanes],
                skip,
            );
            self.recovery_log.extend(rejected.iter().map(|&lane| RecoveryEvent {
                sync: sync0,
                node: nodes[lane],
                kind: RecoveryKind::SampleRejected,
            }));
        }

        // --- poli_power_alloc(): exchange, decide, apply.
        let outcome = self.manager.power_alloc_with(&sf.exchange);
        self.recovery_log.extend(outcome.recoveries.iter().copied());
        // The allocation writes every arriving node's new cap into the
        // caps column; every node then blocks while the allocation call
        // runs.
        let t_end = rendezvous + outcome.overhead;
        let targets = outcome.allocation.as_ref().map(|alloc| {
            alloc.write_caps(&sc.nodes, ns, &mut sc.targets);
            for &node in firsts(&sf.write_error, |&n| n) {
                if lane_of(&sc.nodes, node, &mut sc.fault_lookups).is_some() {
                    // Transient EIO on the powercap write; the retried
                    // write lands ~1 ms late but the cap does apply.
                    self.cluster.node_mut(node).inject_extra_latency(1.0e-3);
                    self.recovery_log.push(RecoveryEvent {
                        sync: sync0,
                        node,
                        kind: RecoveryKind::CapWriteRetried,
                    });
                }
            }
            &sc.targets[..]
        });
        self.cluster.request_caps_and_wait(&self.machine, rendezvous, t_end, &sc.nodes, targets);
        self.t = t_end;
        self.tracer.set_now(t_end);
        if self.tracer.is_enabled() {
            // Land every node's batched span events (phases, waits,
            // cap requests) before this interval's sync_end.
            self.cluster.flush_trace();
            for rec in &self.recovery_log[recoveries_before..] {
                self.tracer.emit(obs::Event::Recovery {
                    sync: sync_k,
                    node: rec.node,
                    tag: rec.kind.tag().into(),
                });
            }
            self.tracer.emit(obs::Event::SyncEnd {
                sync: sync_k,
                overhead_s: outcome.overhead.as_secs_f64(),
            });
            // True interval energy (a pure read of the draw series):
            // the per-sync series tiles [0, T], so the audit layer can
            // close it against the run total.
            self.tracer.emit(obs::Event::SyncEnergy {
                sync: sync_k,
                energy_j: self.cluster.total_energy(&self.all_nodes, t0, t_end),
            });
        }

        // --- Record.
        if rendezvous == t0 {
            // Nobody did any work: every active window was padded to 1 ns
            // and so reaches past the rendezvous, into the allocation wait
            // recorded since the feedback read it. Read the windows again.
            let mean_window = |lanes: std::ops::Range<usize>| {
                let arrived = sc.nodes[lanes.clone()].iter().zip(&sc.arrivals[lanes.clone()]);
                let window = arrived.map(|(&node, &arrival)| {
                    let end = arrival.max(t0 + SimDuration::from_nanos(1));
                    self.cluster.mean_power(node, t0, end)
                });
                window.sum::<f64>() / lanes.len() as f64
            };
            [sim_power_w, ana_power_w] = lanes.map(mean_window);
        }
        self.syncs.push(SyncRecord {
            index: sync_k,
            start_s: t0.as_secs_f64(),
            end_s: t_end.as_secs_f64(),
            sim_time_s: sim_time,
            analysis_time_s: ana_time,
            sim_cap_w,
            analysis_cap_w: ana_cap_w,
            sim_power_w,
            analysis_power_w: ana_power_w,
            slack: (sim_time - ana_time).abs() / slack_den,
            overhead_s: outcome.overhead.as_secs_f64(),
        });
    }

    /// Consume the runtime and assemble the result from whatever has been
    /// stepped so far (everything, when called after [`Runtime::run`]'s
    /// loop; a prefix, when the scheduler killed the job early).
    pub fn finish(mut self) -> RunResult {
        let t = self.t;
        let total_time_s = t.as_secs_f64();
        let total_energy_j = self.cluster.total_energy(&self.all_nodes, SimTime::ZERO, t);
        let (sim_trace, analysis_trace) = if self.cfg.record_traces {
            let sim = self.cluster.sample_trace(&self.sim_nodes, SimTime::ZERO, t);
            let ana = self.cluster.sample_trace(&self.ana_nodes, SimTime::ZERO, t);
            (Some(sim), Some(ana))
        } else {
            (None, None)
        };
        if self.tracer.is_enabled() {
            // Catch spans batched after the last interval close (halt paths).
            self.cluster.flush_trace();
            self.tracer.set_now(t);
            for &node in &self.all_nodes {
                self.tracer.emit(obs::Event::NodeEnergy {
                    node,
                    energy_j: self.cluster.total_energy(&[node], SimTime::ZERO, t),
                });
            }
            self.tracer.emit(obs::Event::RunEnd { total_time_s, total_energy_j });
        }
        RunResult {
            controller: self.cfg.controller.clone(),
            total_time_s,
            total_energy_j,
            syncs: self.syncs,
            sim_trace,
            analysis_trace,
            fault_events: self.fault_log,
            recovery_events: self.recovery_log,
        }
    }

    /// Consult the fault plan for interval `sync0` and arm every seam:
    /// crashes and monitor deaths go straight to the manager, RAPL faults
    /// to the target node's actuator, and the rest into the [`SyncFaults`]
    /// the interval's feedback/exchange paths consume. Only faults that
    /// actually applied (live target) are logged. A crash fires at the
    /// start of its interval, so no other fault on that node applies in
    /// it; a target outside the job and a non-finite or negative straggle
    /// factor apply nowhere.
    fn inject_faults(&mut self, events: &[FaultEvent]) -> SyncFaults {
        let mut sf = SyncFaults::default();
        // The plan is tick-major and node-minor, so one node's faults in
        // this interval are one run of `events`.
        let mut crashing = None;
        for (i, &ev) in events.iter().enumerate() {
            if ev.node >= self.cluster.len() {
                continue;
            }
            if i == 0 || events[i - 1].node != ev.node {
                let mut run = events[i..].iter().take_while(|e| e.node == ev.node);
                crashing = run.any(|e| e.kind == FaultKind::NodeCrash).then_some(ev.node);
            }
            let alive = self.manager.is_alive(ev.node) && crashing != Some(ev.node);
            match ev.kind {
                FaultKind::NodeCrash => {
                    let recs = self.manager.mark_node_dead(ev.node);
                    if !recs.is_empty() {
                        self.fault_log.push(ev);
                        self.recovery_log.extend(recs);
                    }
                }
                // The exchange is collective: it degrades regardless of
                // which node the plan pinned the timeout on.
                FaultKind::CollectiveTimeout { failures } => {
                    sf.exchange.failed_attempts = sf.exchange.failed_attempts.max(failures);
                    self.fault_log.push(ev);
                }
                _ if !alive => {}
                FaultKind::Straggler { factor } if !(factor.is_finite() && factor >= 0.0) => {}
                FaultKind::Straggler { factor } => {
                    sf.straggle.push((ev.node, factor));
                    self.fault_log.push(ev);
                }
                FaultKind::RaplStuck => {
                    self.cluster.node_mut(ev.node).inject_ignore_requests(1);
                    self.fault_log.push(ev);
                }
                FaultKind::RaplDelayed { extra_s } => {
                    self.cluster.node_mut(ev.node).inject_extra_latency(extra_s);
                    self.fault_log.push(ev);
                }
                FaultKind::RaplWriteError => {
                    sf.write_error.push(ev.node);
                    self.fault_log.push(ev);
                }
                FaultKind::SampleNan => {
                    sf.nan.push(ev.node);
                    self.fault_log.push(ev);
                }
                FaultKind::SampleSpike { factor } => {
                    sf.spike.push((ev.node, factor));
                    self.fault_log.push(ev);
                }
                FaultKind::SampleDropout => {
                    sf.dropout.push(ev.node);
                    self.fault_log.push(ev);
                }
                FaultKind::MonitorDeath => {
                    if let Some((_rank, rec)) = self.manager.mark_monitor_dead(ev.node) {
                        self.fault_log.push(ev);
                        self.recovery_log.push(rec);
                    } else if alive {
                        // No live rank left to promote: the node has lost
                        // monitoring entirely — treat it as a node failure
                        // so it stops participating in aggregation.
                        let recs = self.manager.mark_node_dead(ev.node);
                        if !recs.is_empty() {
                            self.fault_log.push(ev);
                            self.recovery_log.extend(recs);
                        }
                    }
                }
                FaultKind::MessageLoss => {
                    sf.exchange.lost_nodes.push(ev.node);
                    self.fault_log.push(ev);
                }
            }
        }
        debug_assert!(sf.ascends(), "a sync's fault lists ascend by node");
        sf
    }
}

/// The faults armed for one synchronization interval (everything the
/// interval's own code paths need to consult; crashes and RAPL injection
/// act on longer-lived state instead).
#[derive(Default)]
struct SyncFaults {
    straggle: Vec<(usize, f64)>,
    write_error: Vec<usize>,
    nan: Vec<usize>,
    spike: Vec<(usize, f64)>,
    dropout: Vec<usize>,
    exchange: ExchangeFaults,
}

/// One partition's mean power and mean cap, each summed in lane order in
/// one pass: the power as `Iterator::sum` folds it (from -0.0), the caps
/// from 0.0 (so no lanes reads 0).
fn means(power: &[f64], caps: &[f64]) -> (f64, f64) {
    let (p, c) = power.iter().zip(caps).fold((-0.0, 0.0), |(p, c), (w, cap)| (p + w, c + cap));
    let n = power.len() as f64;
    (p / n, if caps.is_empty() { 0.0 } else { c / n })
}

/// Each node's first entry in `list`, which ascends by node: the entry
/// that applies when the plan lists a node twice in one interval.
fn firsts<T>(list: &[T], node: impl Fn(&T) -> usize) -> impl Iterator<Item = &T> {
    list.chunk_by(move |a, b| node(a) == node(b)).map(|run| &run[0])
}

/// The lane of `node` among the ascending `ids`, if it arrived: one fault
/// lookup.
fn lane_of(ids: &[usize], node: usize, lookups: &mut u64) -> Option<usize> {
    *lookups += 1;
    ids.binary_search(&node).ok()
}

impl SyncFaults {
    /// Every list ascends by node: the plan sorts a tick's events by node,
    /// stably, and they are pushed in plan order.
    fn ascends(&self) -> bool {
        self.straggle.is_sorted_by_key(|&(n, _)| n)
            && self.spike.is_sorted_by_key(|&(n, _)| n)
            && [&self.write_error, &self.nan, &self.dropout, &self.exchange.lost_nodes]
                .iter()
                .all(|l| l.is_sorted())
    }
}

/// Run a job to completion (analytic workload). Fails with
/// [`UnknownController`] if the configured controller name is not valid.
pub fn run_job(cfg: JobConfig) -> Result<RunResult, UnknownController> {
    Ok(Runtime::new(cfg)?.run())
}

/// Run a job with a trace sink attached to every layer. The recorded
/// trace is keyed on simulated time and is a pure function of
/// `(cfg, seed)` — byte-identical across repeats and thread counts.
pub fn run_job_traced(
    cfg: JobConfig,
    tracer: &obs::Tracer,
) -> Result<RunResult, UnknownController> {
    let mut rt = Runtime::new(cfg)?;
    rt.set_tracer(tracer);
    Ok(rt.run())
}

/// Whole runs through the one walk against the same runs through the
/// node-major reference seam: same results, same serialized trace.
#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;
    use mdsim::workload::WorkloadSpec;
    use mdsim::AnalysisKind as K;

    impl Runtime {
        /// Test seam: [`Runtime::step_sync`] with each partition advanced
        /// by `advance`.
        fn step_with(&mut self, advance: Advance) -> bool {
            if self.is_done() {
                return false;
            }
            let sync_k = self.next_sync;
            self.next_sync += 1;
            let mut scratch = std::mem::take(&mut self.scratch);
            self.run_interval(sync_k, &mut scratch, advance);
            self.scratch = scratch;
            true
        }

        /// [`Runtime::run`] with every interval stepped by the node-major
        /// reference walk.
        fn run_reference(mut self) -> RunResult {
            while self.step_with(advance_reference) {
                self.compact_history();
            }
            self.finish()
        }
    }

    /// The node-major reference the walk is held to: each node in turn
    /// walks alone (its jitters drawn first, phase by phase), with a
    /// scratch of its own.
    #[allow(clippy::too_many_arguments)]
    fn advance_reference(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        nodes: &[usize],
        stretch: &[f64],
        t0: SimTime,
        phases: &[Work],
        _walk: &mut Walk,
        arrivals: &mut Vec<SimTime>,
    ) {
        for (&node, &stretch) in nodes.iter().zip(stretch) {
            let alone = &mut Walk::default();
            cluster.walk(machine, &[node], &[stretch], t0, phases, alone, arrivals);
        }
    }

    /// Node `node` walked alone, observed: returns the bounds of its
    /// phases, phase `p` running over `[bounds[p], bounds[p + 1])`, read
    /// from the phase spans of a tracer attached for this walk alone (a
    /// phase with no work has no span: it starts and ends where the one
    /// before ended). For a runtime without a tracer: it is detached again
    /// afterwards.
    fn walk_alone_observed(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        (node, stretch): (usize, f64),
        t0: SimTime,
        phases: &[Work],
        arrivals: &mut Vec<SimTime>,
    ) -> Vec<SimTime> {
        let tracer = obs::Tracer::enabled();
        cluster.set_tracer(&tracer);
        let alone = &mut Walk::default();
        cluster.walk(machine, &[node], &[stretch], t0, phases, alone, arrivals);
        cluster.flush_trace();
        cluster.set_tracer(&obs::Tracer::off());
        let mut spans = tracer.events().into_iter().map(|e| match e.ev {
            obs::Event::Phase { node: n, start_ns, end_ns, .. } if n == node => (start_ns, end_ns),
            ev => panic!("node {node}'s walk alone traced {ev:?}: is a tracer attached?"),
        });
        let mut bounds = vec![t0];
        for w in phases {
            let start = bounds[bounds.len() - 1];
            let end = if w.ref_secs * stretch > 0.0 {
                let (from, to) = spans.next().expect("a span per phase with work");
                assert_eq!(from, start.as_nanos(), "node {node}'s phases run back to back");
                SimTime::from_nanos(to)
            } else {
                start
            };
            bounds.push(end);
        }
        assert!(spans.next().is_none(), "a span per phase with work");
        bounds
    }

    /// [`advance_reference`] that also counts, into `walk.evaluations`,
    /// the distinct `(phase, cap bits)` pairs its
    /// segments meet: what the memoized walk should evaluate.
    #[allow(clippy::too_many_arguments)]
    fn advance_counting_pairs(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        nodes: &[usize],
        stretch: &[f64],
        t0: SimTime,
        phases: &[Work],
        walk: &mut Walk,
        arrivals: &mut Vec<SimTime>,
    ) {
        let mut pairs = std::collections::BTreeSet::new();
        for (&node, &stretch) in nodes.iter().zip(stretch) {
            // The cap in force at t0, and the change pending after it.
            let first = cluster.enforced_at(node, t0);
            let change = cluster.next_change_after(node, t0);
            let next = change.map_or(first, |at| cluster.enforced_at(node, at));
            let bounds =
                walk_alone_observed(cluster, machine, (node, stretch), t0, phases, arrivals);
            for (p, &w) in phases.iter().enumerate() {
                if w.ref_secs * stretch > 0.0 {
                    // The cap at the phase's start, and the new one if the
                    // change lands strictly inside the phase.
                    let (start, end) = (bounds[p], bounds[p + 1]);
                    let landed = change.is_some_and(|at| at <= start);
                    pairs.insert((p, if landed { next } else { first }.to_bits()));
                    if change.is_some_and(|at| start < at && at < end) {
                        pairs.insert((p, next.to_bits()));
                    }
                }
            }
        }
        walk.evaluations += pairs.len() as u64;
    }

    /// [`advance_reference`] that also counts, into `walk.late_phases`,
    /// the node-phases with a cap change pending after their start: the
    /// change read before the node walks, each phase's start read from
    /// its walk's spans.
    #[allow(clippy::too_many_arguments)]
    fn advance_counting_late(
        cluster: &mut Cluster,
        machine: &MachineConfig,
        nodes: &[usize],
        stretch: &[f64],
        t0: SimTime,
        phases: &[Work],
        walk: &mut Walk,
        arrivals: &mut Vec<SimTime>,
    ) {
        for (&node, &stretch) in nodes.iter().zip(stretch) {
            let change = cluster.next_change_after(node, t0);
            let bounds =
                walk_alone_observed(cluster, machine, (node, stretch), t0, phases, arrivals);
            let starts = &bounds[..phases.len()];
            let late = starts.iter().filter(|&&start| change.is_some_and(|at| start < at));
            walk.late_phases += late.count() as u64;
        }
    }

    fn quiet_cfg(nodes: usize, steps: u64) -> JobConfig {
        let mut spec = WorkloadSpec::paper(16, nodes, 1, &[K::Rdf, K::Vacf]);
        spec.total_steps = steps;
        JobConfig::new(spec, "seesaw").with_quiet_noise()
    }

    /// Run `cfg` with a buffering tracer; return the result and the
    /// serialized JSONL trace.
    fn traced(cfg: JobConfig, reference: bool) -> (RunResult, String) {
        let tracer = obs::Tracer::enabled();
        let mut rt = Runtime::new(cfg).expect("known controller");
        rt.set_tracer(&tracer);
        let r = if reference { rt.run_reference() } else { rt.run() };
        (r, tracer.to_jsonl())
    }

    /// Field-by-field equality of the pieces that matter, bitwise on
    /// floats, plus byte equality of the traces.
    fn assert_matches_reference(cfg: impl Fn() -> JobConfig) -> RunResult {
        let (a, a_trace) = traced(cfg(), false);
        let (b, b_trace) = traced(cfg(), true);
        assert_eq!(a.total_time_s.to_bits(), b.total_time_s.to_bits(), "total time diverged");
        assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits(), "total energy diverged");
        assert_eq!(a.syncs, b.syncs, "per-sync records diverged");
        assert_eq!(a.fault_events, b.fault_events, "fault logs diverged");
        assert_eq!(a.recovery_events, b.recovery_events, "recovery logs diverged");
        assert!(!a_trace.is_empty());
        assert_eq!(a_trace, b_trace, "serialized traces diverged");
        a
    }

    #[test]
    fn a_quiet_theta_sync_evaluates_each_cap_and_phase_once() {
        // A quiet 4 392-node seesaw job: the walk evaluates one operating
        // point per distinct (cap bits, phase) pair its segments meet, as
        // counted by the node-major reference on an identical job.
        let cfg = || {
            let mut spec = WorkloadSpec::paper(48, 4392, 1, &[K::Rdf, K::Vacf]);
            spec.total_steps = 4;
            JobConfig::new(spec, "seesaw").with_quiet_noise()
        };
        let mut walked = Runtime::new(cfg()).expect("known controller");
        let mut counted = Runtime::new(cfg()).expect("known controller");
        let evaluations = |rt: &Runtime| rt.scratch.walk.evaluations;
        while !walked.is_done() {
            let before = (evaluations(&walked), evaluations(&counted));
            assert!(walked.step_sync());
            assert!(counted.step_with(advance_counting_pairs));
            assert_eq!(walked.now(), counted.now());
            let evaluated = evaluations(&walked) - before.0;
            let distinct = evaluations(&counted) - before.1;
            assert_eq!(evaluated, distinct, "sync {}", walked.completed_syncs());
        }
    }

    #[test]
    fn a_quiet_theta_sync_takes_the_column_pass() {
        // The same quiet 4 392-node seesaw job: the walk finds exactly the
        // node-phases with a cap change pending after their start, as
        // counted by the node-major reference.
        let cfg = || {
            let mut spec = WorkloadSpec::paper(48, 4392, 1, &[K::Rdf, K::Vacf]);
            spec.total_steps = 4;
            JobConfig::new(spec, "seesaw").with_quiet_noise()
        };
        let mut walked = Runtime::new(cfg()).expect("known controller");
        let mut counted = Runtime::new(cfg()).expect("known controller");
        let late_phases = |rt: &Runtime| rt.scratch.walk.late_phases;
        while !walked.is_done() {
            let before = (late_phases(&walked), late_phases(&counted));
            assert!(walked.step_sync());
            assert!(counted.step_with(advance_counting_late));
            assert_eq!(walked.now(), counted.now());
            let took = late_phases(&walked) - before.0;
            let late = late_phases(&counted) - before.1;
            assert_eq!(took, late, "sync {}", walked.completed_syncs());
        }
    }

    #[test]
    fn fault_lookups_are_bounded_by_nodes_plus_faults() {
        // A quiet 4 392-node seesaw job whose third interval carries well
        // over a thousand sample faults and as many cap-write errors (some
        // nodes listed twice): each fault-list entry is applied by one
        // search or one lock-step walk, never by a per-node lookup in
        // every list.
        const SYNC: u64 = 2;
        let mut events = Vec::new();
        for node in 0..4392 {
            let mut fault = |kind| events.push(FaultEvent { sync: SYNC, node, kind });
            match node % 4 {
                0 => fault(FaultKind::SampleNan),
                1 => fault(FaultKind::SampleSpike { factor: 1.5 }),
                2 if node % 3 == 0 => fault(FaultKind::SampleDropout),
                _ => {}
            }
            if node % 3 == 0 {
                fault(FaultKind::RaplWriteError);
            }
            if node % 97 == 0 {
                fault(FaultKind::Straggler { factor: 1.2 });
                fault(FaultKind::SampleSpike { factor: 3.0 });
            }
        }
        let plan = FaultPlan::from_events(events);
        let faults = plan.at(SYNC).len() as u64;
        let mut spec = WorkloadSpec::paper(48, 4392, 1, &[K::Rdf, K::Vacf]);
        spec.total_steps = 4;
        let cfg = JobConfig::new(spec, "seesaw").with_quiet_noise().with_faults(plan);
        let mut rt = Runtime::new(cfg).expect("known controller");
        for _ in 0..SYNC {
            assert!(rt.step_sync());
        }
        let before = rt.scratch.fault_lookups;
        assert!(rt.step_sync());
        let lookups = rt.scratch.fault_lookups - before;
        let applied = |kind| rt.recovery_log.iter().filter(|r| r.kind == kind).count();
        assert!(faults > 2_000, "{faults} faults");
        assert!(applied(RecoveryKind::CapWriteRetried) > 1_000, "the writes must fail");
        assert!(applied(RecoveryKind::SampleRejected) > 1_000, "the samples must be corrupt");
        assert!(lookups > 0 && lookups <= 4392 + faults, "{lookups} lookups, {faults} faults");
    }

    #[test]
    fn a_node_listed_twice_in_one_interval_takes_its_first_entry() {
        // Two spikes on one node and two stragglers on another, in one
        // interval: the run is the run of the first entries alone, and
        // not the run of the second ones.
        let run = |entries: &[(FaultKind, FaultKind)]| {
            let mut events = Vec::new();
            for &(spike, straggle) in entries {
                events.push(FaultEvent { sync: 4, node: 2, kind: spike });
                events.push(FaultEvent { sync: 4, node: 7, kind: straggle });
            }
            let r = run_job(quiet_cfg(12, 12).with_faults(FaultPlan::from_events(events)))
                .expect("known controller");
            (r.syncs, r.total_energy_j.to_bits())
        };
        let first = (FaultKind::SampleSpike { factor: 1.5 }, FaultKind::Straggler { factor: 1.3 });
        let second = (FaultKind::SampleSpike { factor: 3.0 }, FaultKind::Straggler { factor: 2.0 });
        assert_eq!(run(&[first, second]), run(&[first]));
        assert_ne!(run(&[first]), run(&[second]), "the entries must matter");
    }

    #[test]
    fn one_walk_equals_reference_on_a_quiet_run() {
        assert_matches_reference(|| quiet_cfg(12, 30));
    }

    #[test]
    fn one_walk_equals_reference_under_faults() {
        // Stragglers split the stretch keys, a crash shrinks a partition
        // mid-run, RAPL faults diverge one node's actuator state, and sample
        // corruption exercises the feedback path.
        let plan = FaultPlan::from_events(vec![
            FaultEvent { sync: 3, node: 1, kind: FaultKind::Straggler { factor: 1.7 } },
            FaultEvent { sync: 5, node: 2, kind: FaultKind::RaplStuck },
            FaultEvent { sync: 8, node: 9, kind: FaultKind::NodeCrash },
            FaultEvent { sync: 11, node: 4, kind: FaultKind::SampleNan },
            FaultEvent { sync: 14, node: 3, kind: FaultKind::RaplDelayed { extra_s: 0.002 } },
        ]);
        let r = assert_matches_reference(|| quiet_cfg(12, 30).with_faults(plan.clone()));
        assert!(!r.fault_events.is_empty(), "plan must actually fire");
    }

    #[test]
    fn one_walk_equals_reference_below_the_power_cliff() {
        // Caps below CLIFF_START_W put every node in the straggler lottery
        // (sigma scale > 1): the walk draws every lane's jitters node by
        // node, so the shared jitter stream is consumed exactly as the
        // reference, walking each node alone, consumes it.
        assert_matches_reference(|| {
            quiet_cfg(8, 20).with_budget(95.0).with_initial_caps(95.0, 95.0)
        });
    }

    #[test]
    fn one_walk_equals_reference_on_a_noisy_run() {
        // Under default noise every node draws its own jitters: this trips
        // if the phase-major walk consumes the shared jitter stream in
        // another order than the node-major reference.
        let mut spec = WorkloadSpec::paper(16, 8, 1, &[K::Vacf]);
        spec.total_steps = 20;
        assert_matches_reference(|| JobConfig::new(spec.clone(), "seesaw"));
    }
}
