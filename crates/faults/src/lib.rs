//! # faults — deterministic fault injection for the PoLiMER stack
//!
//! The SeeSAw paper's headline claim is robustness: the controller stays
//! within ~1 % of the static baseline's slack *despite* noisy feedback,
//! stragglers, and RAPL actuation quirks (§VII-D). This crate supplies the
//! fault model that lets the reproduction test that claim: a
//! [`FaultPlan`] is generated once from a seed (via `des::rng`, the same
//! xoshiro256++ generator the rest of the stack uses), and every layer
//! consults it at well-defined seams:
//!
//! | layer       | seam                                   | fault kinds |
//! |-------------|----------------------------------------|-------------|
//! | `theta-sim` | phase execution, RAPL actuation        | [`FaultKind::NodeCrash`], [`FaultKind::Straggler`], [`FaultKind::RaplStuck`], [`FaultKind::RaplDelayed`] |
//! | `mpisim`    | collectives in the measurement exchange | [`FaultKind::MessageLoss`], [`FaultKind::CollectiveTimeout`] |
//! | `polimer`   | sample aggregation, monitor rank       | [`FaultKind::SampleNan`], [`FaultKind::SampleSpike`], [`FaultKind::SampleDropout`], [`FaultKind::MonitorDeath`] |
//! | `rapl`      | sysfs writes (mock FS)                 | [`FaultKind::RaplWriteError`] |
//!
//! Node faults per synchronization interval ([`FaultPlan`]), job kills per
//! scheduler epoch ([`JobFaultPlan`]) and machine faults per fleet epoch
//! ([`MachineFaultPlan`]) are one tick-major [`Plan`] type: each layer
//! reads one tick's events as a slice through [`Plan::at`].
//!
//! Two invariants the rest of the workspace relies on:
//!
//! 1. **Determinism** — the same `(seed, intensity, nodes, syncs)` tuple
//!    always yields the same plan, so a faulty run is exactly replayable
//!    (`scripts/verify.sh` diffs two `repro fault_sweep` runs byte-for-byte).
//! 2. **Happy-path transparency** — an empty plan ([`Plan::none`])
//!    injects nothing and perturbs no RNG stream, so runs with faults
//!    disabled are byte-identical to a build without this crate.
//!
//! Consumers record what they did about each fault as a
//! [`RecoveryEvent`]; `insitu::RunResult` carries both logs so
//! experiments can assert that every injected fault was matched by a
//! recovery action.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use des::Rng;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node dies at the start of the sync interval and never returns.
    NodeCrash,
    /// The node's phase time is stretched by `factor` (> 1) this interval.
    Straggler {
        /// Multiplier on the node's phase duration (e.g. 3.0 = 3× slower).
        factor: f64,
    },
    /// The RAPL domain ignores cap requests this interval (actuator wedged).
    RaplStuck,
    /// Cap actuation is delayed by `extra_s` beyond the normal ~10 ms.
    RaplDelayed {
        /// Additional actuation latency in seconds.
        extra_s: f64,
    },
    /// The mock powercap FS returns a transient `EIO` on the next write(s).
    RaplWriteError,
    /// The node's power/time sample arrives as NaN.
    SampleNan,
    /// The node's power sample is multiplied by `factor` (sensor glitch).
    SampleSpike {
        /// Multiplier on the reported power (e.g. 50.0 = absurd spike).
        factor: f64,
    },
    /// The node's sample is silently dropped (monitor missed the window).
    SampleDropout,
    /// The node's monitor rank dies; a peer rank must be re-elected.
    MonitorDeath,
    /// The node's contribution to the measurement allgather is lost.
    MessageLoss,
    /// The measurement collective times out `failures` times before
    /// succeeding (deterministic retry-failure count; u32::MAX = never).
    CollectiveTimeout {
        /// How many consecutive attempts fail before one succeeds.
        failures: u32,
    },
}

impl FaultKind {
    /// Stable lowercase tag for logs and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "node_crash",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::RaplStuck => "rapl_stuck",
            FaultKind::RaplDelayed { .. } => "rapl_delayed",
            FaultKind::RaplWriteError => "rapl_write_error",
            FaultKind::SampleNan => "sample_nan",
            FaultKind::SampleSpike { .. } => "sample_spike",
            FaultKind::SampleDropout => "sample_dropout",
            FaultKind::MonitorDeath => "monitor_death",
            FaultKind::MessageLoss => "message_loss",
            FaultKind::CollectiveTimeout { .. } => "collective_timeout",
        }
    }
}

/// A fault scheduled against one node at one synchronization interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Synchronization index (0-based interval ordinal) at which it fires.
    pub sync: u64,
    /// Target node (cluster-wide index).
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// What a layer did about a fault (recorded by the consumer, not the plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryKind {
    /// A dead monitor rank was replaced by a surviving rank on the node.
    MonitorReelected,
    /// A crashed node was excluded from scheduling and aggregation.
    NodeExcluded,
    /// The budget was renormalized over the surviving nodes.
    BudgetRenormalized,
    /// A corrupt (non-finite / non-positive / spiking) sample was rejected.
    SampleRejected,
    /// The previous allocation was held because feedback was unusable.
    AllocationHeld,
    /// A failed cap write was retried and eventually succeeded.
    CapWriteRetried,
    /// A timed-out collective was retried with bounded backoff.
    CollectiveRetried,
}

impl RecoveryKind {
    /// Stable lowercase tag for logs and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryKind::MonitorReelected => "monitor_reelected",
            RecoveryKind::NodeExcluded => "node_excluded",
            RecoveryKind::BudgetRenormalized => "budget_renormalized",
            RecoveryKind::SampleRejected => "sample_rejected",
            RecoveryKind::AllocationHeld => "allocation_held",
            RecoveryKind::CapWriteRetried => "cap_write_retried",
            RecoveryKind::CollectiveRetried => "collective_retried",
        }
    }
}

/// A recovery action taken in response to injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Synchronization interval during which the action was taken.
    pub sync: u64,
    /// Node the action concerned (aggregation-wide actions use the
    /// monitor's node).
    pub node: usize,
    /// What was done.
    pub kind: RecoveryKind,
}

/// Per-kind injection probabilities (per node, per sync interval).
///
/// All fields are probabilities in `[0, 1]`. The default is all-zero
/// (no faults). [`FaultIntensity::scaled`] gives the single-knob profile
/// the `fault_sweep` experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultIntensity {
    /// Probability a node crashes (at most one crash fires per node).
    pub node_crash: f64,
    /// Probability a node straggles this interval.
    pub straggler: f64,
    /// Probability the node's RAPL actuator wedges this interval.
    pub rapl_stuck: f64,
    /// Probability cap actuation is late this interval.
    pub rapl_delayed: f64,
    /// Probability the next sysfs cap write returns `EIO`.
    pub rapl_write_error: f64,
    /// Probability the node's sample is NaN.
    pub sample_nan: f64,
    /// Probability the node's power sample spikes.
    pub sample_spike: f64,
    /// Probability the node's sample is dropped.
    pub sample_dropout: f64,
    /// Probability the node's monitor rank dies (fires at most once/node).
    pub monitor_death: f64,
    /// Probability the node's allgather contribution is lost.
    pub message_loss: f64,
    /// Probability the whole measurement collective times out (evaluated
    /// once per interval, on node 0).
    pub collective_timeout: f64,
}

impl FaultIntensity {
    /// The `fault_sweep` profile: one knob `x ∈ [0, 1]` scaling a mixed
    /// workload of the paper-relevant fault kinds. At `x = 1` roughly
    /// every tenth node-interval sees a corrupted sample, actuation
    /// faults are common, and a few percent of node-intervals straggle;
    /// crashes and monitor deaths stay rare so runs finish.
    pub fn scaled(x: f64) -> Self {
        let x = x.clamp(0.0, 1.0);
        FaultIntensity {
            node_crash: 0.002 * x,
            straggler: 0.03 * x,
            rapl_stuck: 0.04 * x,
            rapl_delayed: 0.05 * x,
            rapl_write_error: 0.04 * x,
            sample_nan: 0.05 * x,
            sample_spike: 0.04 * x,
            sample_dropout: 0.05 * x,
            monitor_death: 0.002 * x,
            message_loss: 0.03 * x,
            collective_timeout: 0.02 * x,
        }
    }

    fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// A fault a [`Plan`] schedules: it fires at one tick (a synchronization
/// interval or a scheduling epoch) against one target (a node, a job or a
/// machine).
pub trait PlanEvent {
    /// `(tick, target)`, the plan's sort key.
    fn key(&self) -> (u64, usize);
}

impl PlanEvent for FaultEvent {
    fn key(&self) -> (u64, usize) {
        (self.sync, self.node)
    }
}

/// A fully materialized, replayable fault schedule.
///
/// Generated up front so injection never draws from the simulation's RNG
/// streams — the happy path's random sequence is untouched whether or not
/// a plan exists. Generation is deterministic in all arguments, and the
/// empty plan injects nothing. Each layer reads its tick's events through
/// [`Plan::at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan<E> {
    /// Tick-major (ascending tick), which [`Plan::at`] bisects.
    events: Vec<E>,
}

impl<E: PlanEvent> Plan<E> {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        Plan { events: Vec::new() }
    }

    /// Build a plan from an explicit event list (tests, bespoke scenarios).
    pub fn from_events(mut events: Vec<E>) -> Self {
        events.sort_by_key(E::key);
        Plan { events }
    }

    /// True if the plan injects nothing (the happy path).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events firing at tick `tick`, in plan order: a slice of the
    /// tick-major plan.
    pub fn at(&self, tick: u64) -> &[E] {
        let start = self.events.partition_point(|e| e.key().0 < tick);
        let end = self.events.partition_point(|e| e.key().0 <= tick);
        &self.events[start..end]
    }
}

/// Node faults, one tick per synchronization interval.
pub type FaultPlan = Plan<FaultEvent>;

impl FaultPlan {
    /// Generate a plan for a `nodes`-node job over `syncs` intervals.
    ///
    /// Deterministic in all arguments. Node crashes and monitor deaths
    /// fire at most once per node (a dead node stays dead; a re-elected
    /// monitor does not die again in this model).
    pub fn generate(seed: u64, intensity: &FaultIntensity, nodes: usize, syncs: u64) -> Self {
        if intensity.is_zero() || nodes == 0 || syncs == 0 {
            return Plan::none();
        }
        // Domain-separated from every simulation stream: the plan has its
        // own root, so identical seeds elsewhere cannot correlate with it.
        let mut rng = Rng::seed_from_u64(seed ^ 0xFA17_7157_D00D_F00D);
        let mut events = Vec::new();
        let mut crashed = vec![false; nodes];
        let mut monitor_dead = vec![false; nodes];
        for sync in 0..syncs {
            if rng.next_f64() < intensity.collective_timeout {
                let failures = 1 + rng.next_below(3) as u32;
                events.push(FaultEvent {
                    sync,
                    node: 0,
                    kind: FaultKind::CollectiveTimeout { failures },
                });
            }
            for node in 0..nodes {
                if crashed[node] {
                    continue;
                }
                if rng.next_f64() < intensity.node_crash {
                    crashed[node] = true;
                    events.push(FaultEvent { sync, node, kind: FaultKind::NodeCrash });
                    continue;
                }
                if rng.next_f64() < intensity.straggler {
                    let factor = 1.5 + 3.0 * rng.next_f64();
                    events.push(FaultEvent { sync, node, kind: FaultKind::Straggler { factor } });
                }
                if rng.next_f64() < intensity.rapl_stuck {
                    events.push(FaultEvent { sync, node, kind: FaultKind::RaplStuck });
                }
                if rng.next_f64() < intensity.rapl_delayed {
                    let extra_s = 0.05 + 0.45 * rng.next_f64();
                    events.push(FaultEvent {
                        sync,
                        node,
                        kind: FaultKind::RaplDelayed { extra_s },
                    });
                }
                if rng.next_f64() < intensity.rapl_write_error {
                    events.push(FaultEvent { sync, node, kind: FaultKind::RaplWriteError });
                }
                if rng.next_f64() < intensity.sample_nan {
                    events.push(FaultEvent { sync, node, kind: FaultKind::SampleNan });
                }
                if rng.next_f64() < intensity.sample_spike {
                    let factor = 10.0 + 90.0 * rng.next_f64();
                    events.push(FaultEvent { sync, node, kind: FaultKind::SampleSpike { factor } });
                }
                if rng.next_f64() < intensity.sample_dropout {
                    events.push(FaultEvent { sync, node, kind: FaultKind::SampleDropout });
                }
                if !monitor_dead[node] && rng.next_f64() < intensity.monitor_death {
                    monitor_dead[node] = true;
                    events.push(FaultEvent { sync, node, kind: FaultKind::MonitorDeath });
                }
                if rng.next_f64() < intensity.message_loss {
                    events.push(FaultEvent { sync, node, kind: FaultKind::MessageLoss });
                }
            }
        }
        Plan { events }
    }
}

/// A job-level fault: kill job `job` at the start of scheduling epoch
/// `epoch` (machine-level analogue of [`FaultKind::NodeCrash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobFault {
    /// Scheduling epoch (0-based) at which the kill fires.
    pub epoch: u64,
    /// Target job id (arrival ordinal in the scheduler's job list).
    pub job: usize,
}

impl PlanEvent for JobFault {
    fn key(&self) -> (u64, usize) {
        (self.epoch, self.job)
    }
}

/// Job kills for the machine-level scheduler, one tick per scheduling
/// epoch.
pub type JobFaultPlan = Plan<JobFault>;

impl JobFaultPlan {
    /// Generate kills for `jobs` jobs over `epochs` scheduling epochs,
    /// each job dying at most once with per-epoch probability `kill_prob`.
    pub fn generate(seed: u64, jobs: usize, epochs: u64, kill_prob: f64) -> Self {
        if kill_prob <= 0.0 || jobs == 0 || epochs == 0 {
            return Plan::none();
        }
        // Domain-separated from both the node-fault plans and every
        // simulation stream.
        let mut rng = Rng::seed_from_u64(seed ^ 0x10B_FA17_5C4E_D01E);
        let mut events = Vec::new();
        let mut killed = vec![false; jobs];
        for epoch in 0..epochs {
            for (job, dead) in killed.iter_mut().enumerate() {
                if !*dead && rng.next_f64() < kill_prob {
                    *dead = true;
                    events.push(JobFault { epoch, job });
                }
            }
        }
        Plan { events }
    }
}

/// One kind of machine-level fault (failure-domain analogue of
/// [`FaultKind`]: a whole machine, not a node, misbehaves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineFaultKind {
    /// The machine dies at the start of the fleet epoch and never returns.
    Crash,
    /// The machine is unreachable (heartbeats lost, jobs frozen) for
    /// `epochs` fleet epochs, then heals.
    Partition {
        /// Outage length in fleet epochs.
        epochs: u64,
    },
    /// The machine keeps running but every epoch takes `factor` (> 1)
    /// times longer on its wall clock, for `epochs` fleet epochs.
    Slow {
        /// Multiplier on the machine's epoch duration.
        factor: f64,
        /// Slowdown length in fleet epochs.
        epochs: u64,
    },
}

/// A machine-level fault scheduled at one fleet epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineFault {
    /// Fleet scheduling epoch (0-based) at which the fault fires.
    pub epoch: u64,
    /// Target machine (fleet-wide index).
    pub machine: usize,
    /// What happens.
    pub kind: MachineFaultKind,
}

/// Per-kind injection probabilities for machine faults (per machine, per
/// fleet epoch). All fields are probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MachineFaultIntensity {
    /// Probability a machine crashes (fires at most once per machine).
    pub crash: f64,
    /// Probability a machine partitions away for a few epochs.
    pub partition: f64,
    /// Probability a machine slows down for a few epochs.
    pub slow: f64,
}

impl MachineFaultIntensity {
    /// No machine faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// The `fleet_sweep` storm profile: one knob `x ∈ [0, 1]`. Crashes
    /// stay rare (a crashed machine never returns, so the fleet must keep
    /// enough survivors to finish); partitions and slowdowns are the
    /// common weather.
    pub fn storm(x: f64) -> Self {
        let x = x.clamp(0.0, 1.0);
        MachineFaultIntensity { crash: 0.01 * x, partition: 0.03 * x, slow: 0.04 * x }
    }

    fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

impl PlanEvent for MachineFault {
    fn key(&self) -> (u64, usize) {
        (self.epoch, self.machine)
    }
}

/// Machine faults for the fleet scheduler, one tick per fleet epoch. At
/// most one fault is active per machine at a time (a partitioned machine
/// does not also slow down mid-outage), and a crashed machine schedules
/// nothing further.
pub type MachineFaultPlan = Plan<MachineFault>;

impl MachineFaultPlan {
    /// Generate a storm for `machines` machines over `epochs` fleet
    /// epochs. Deterministic in all arguments.
    pub fn generate(
        seed: u64,
        intensity: &MachineFaultIntensity,
        machines: usize,
        epochs: u64,
    ) -> Self {
        if intensity.is_zero() || machines == 0 || epochs == 0 {
            return Plan::none();
        }
        // Domain-separated from the node-level and job-level plans and
        // from every simulation stream.
        let mut rng = Rng::seed_from_u64(seed ^ 0xF1EE_7FA1_7B10_C0DE);
        let mut events = Vec::new();
        let mut crashed = vec![false; machines];
        // Epoch at which the machine's current fault (if any) ends.
        let mut busy_until = vec![0u64; machines];
        for epoch in 0..epochs {
            for machine in 0..machines {
                if crashed[machine] || epoch < busy_until[machine] {
                    continue;
                }
                if rng.next_f64() < intensity.crash {
                    crashed[machine] = true;
                    events.push(MachineFault { epoch, machine, kind: MachineFaultKind::Crash });
                    continue;
                }
                if rng.next_f64() < intensity.partition {
                    let outage = 2 + rng.next_below(4);
                    busy_until[machine] = epoch + outage;
                    events.push(MachineFault {
                        epoch,
                        machine,
                        kind: MachineFaultKind::Partition { epochs: outage },
                    });
                    continue;
                }
                if rng.next_f64() < intensity.slow {
                    let factor = 1.5 + 2.5 * rng.next_f64();
                    let span = 2 + rng.next_below(4);
                    busy_until[machine] = epoch + span;
                    events.push(MachineFault {
                        epoch,
                        machine,
                        kind: MachineFaultKind::Slow { factor, epochs: span },
                    });
                }
            }
        }
        Plan { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_plan_generation_is_deterministic_and_kills_once() {
        let a = JobFaultPlan::generate(11, 6, 40, 0.1);
        let b = JobFaultPlan::generate(11, 6, 40, 0.1);
        assert_eq!(a, b);
        for job in 0..6 {
            let kills = a.events.iter().filter(|e| e.job == job).count();
            assert!(kills <= 1, "job {job} killed {kills} times");
        }
        assert!(JobFaultPlan::generate(11, 6, 40, 0.0).events.is_empty());
    }

    #[test]
    fn job_plan_kills_at_filters_by_epoch() {
        let plan = JobFaultPlan::from_events(vec![
            JobFault { epoch: 3, job: 1 },
            JobFault { epoch: 0, job: 2 },
        ]);
        let kills_at = |epoch| plan.at(epoch).iter().map(|k| k.job).collect::<Vec<_>>();
        assert_eq!(kills_at(0), vec![2]);
        assert_eq!(kills_at(3), vec![1]);
        assert_eq!(plan.at(1).len(), 0);
        assert_eq!(plan.events[0].epoch, 0, "from_events sorts");
    }

    #[test]
    fn empty_plan_is_free() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.at(0).len(), 0);
        assert_eq!(FaultPlan::generate(1, &FaultIntensity::default(), 8, 100), p);
    }

    #[test]
    fn generation_is_deterministic() {
        let i = FaultIntensity::scaled(0.7);
        let a = FaultPlan::generate(42, &i, 16, 50);
        let b = FaultPlan::generate(42, &i, 16, 50);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, &i, 16, 50);
        assert_ne!(a, c, "different seed should change the plan");
    }

    #[test]
    fn full_intensity_covers_many_kinds() {
        let plan = FaultPlan::generate(7, &FaultIntensity::scaled(1.0), 16, 200);
        let mut tags: Vec<&str> = plan.events.iter().map(|e| e.kind.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert!(tags.len() >= 5, "expected a mixed workload, got {tags:?}");
    }

    #[test]
    fn at_most_one_crash_per_node() {
        let i = FaultIntensity { node_crash: 0.5, ..FaultIntensity::default() };
        let plan = FaultPlan::generate(3, &i, 4, 100);
        for node in 0..4 {
            let crashes = plan
                .events
                .iter()
                .filter(|e| e.node == node && e.kind == FaultKind::NodeCrash)
                .count();
            assert!(crashes <= 1, "node {node} crashed {crashes} times");
        }
    }

    #[test]
    fn events_at_filters_by_sync() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { sync: 2, node: 1, kind: FaultKind::RaplStuck },
            FaultEvent { sync: 0, node: 0, kind: FaultKind::SampleNan },
        ]);
        assert_eq!(plan.at(0).len(), 1);
        assert_eq!(plan.at(1).len(), 0);
        assert_eq!(plan.at(2).len(), 1);
        assert_eq!(plan.events[0].sync, 0, "from_events sorts");
        // A generated plan is sync-major: its per-sync slices tile it.
        let plan = FaultPlan::generate(3, &FaultIntensity::scaled(1.0), 16, 50);
        let tiled: Vec<FaultEvent> = (0..50).flat_map(|k| plan.at(k).to_vec()).collect();
        assert!(!tiled.is_empty() && tiled == plan.events);
    }

    #[test]
    fn intensity_scaling_monotone() {
        let lo = FaultPlan::generate(9, &FaultIntensity::scaled(0.1), 16, 100).events.len();
        let hi = FaultPlan::generate(9, &FaultIntensity::scaled(1.0), 16, 100).events.len();
        assert!(hi > lo, "more intensity should mean more events ({lo} vs {hi})");
    }

    #[test]
    fn machine_plan_generation_is_deterministic() {
        let i = MachineFaultIntensity::storm(1.0);
        let a = MachineFaultPlan::generate(11, &i, 4, 200);
        let b = MachineFaultPlan::generate(11, &i, 4, 200);
        assert_eq!(a, b);
        assert!(!a.events.is_empty(), "full storm over 200 epochs should inject something");
        let c = MachineFaultPlan::generate(12, &i, 4, 200);
        assert_ne!(a, c, "different seed should change the plan");
        assert_eq!(
            MachineFaultPlan::generate(11, &MachineFaultIntensity::none(), 4, 200).events.len(),
            0
        );
    }

    #[test]
    fn machine_plan_crashes_at_most_once_and_never_overlaps() {
        let i = MachineFaultIntensity { crash: 0.05, partition: 0.2, slow: 0.2 };
        let plan = MachineFaultPlan::generate(5, &i, 3, 300);
        for machine in 0..3 {
            let mut crashed_at = None;
            let mut busy_until = 0u64;
            for f in plan.events.iter().filter(|f| f.machine == machine) {
                assert!(crashed_at.is_none(), "machine {machine} faulted after a crash");
                assert!(f.epoch >= busy_until, "machine {machine} overlapping faults");
                match f.kind {
                    MachineFaultKind::Crash => crashed_at = Some(f.epoch),
                    MachineFaultKind::Partition { epochs } => busy_until = f.epoch + epochs,
                    MachineFaultKind::Slow { factor, epochs } => {
                        assert!(factor > 1.0, "slowdown must dilate time");
                        busy_until = f.epoch + epochs;
                    }
                }
            }
        }
    }

    #[test]
    fn machine_plan_from_events_sorts_and_filters() {
        let plan = MachineFaultPlan::from_events(vec![
            MachineFault { epoch: 5, machine: 1, kind: MachineFaultKind::Crash },
            MachineFault { epoch: 2, machine: 0, kind: MachineFaultKind::Partition { epochs: 3 } },
        ]);
        assert_eq!(plan.events[0].epoch, 2, "from_events sorts");
        assert_eq!(plan.at(5).len(), 1);
        assert_eq!(plan.at(3).len(), 0);
        assert_eq!(plan.events.len(), 2);
    }

    /// Every tick's slice is the whole-plan filter for that tick, and the
    /// slices, concatenated in tick order, are the plan.
    fn assert_slices_tile<E: PlanEvent + Clone + PartialEq + std::fmt::Debug>(plan: &Plan<E>) {
        assert!(!plan.is_empty());
        let last = plan.events.last().map_or(0, |e| e.key().0);
        let mut tiled = Vec::new();
        for tick in 0..=last + 1 {
            let filtered: Vec<E> =
                plan.events.iter().filter(|e| e.key().0 == tick).cloned().collect();
            assert_eq!(plan.at(tick), filtered.as_slice(), "tick {tick}");
            tiled.extend_from_slice(plan.at(tick));
        }
        assert_eq!(tiled, plan.events);
    }

    #[test]
    fn every_plan_kind_is_tiled_by_its_tick_slices() {
        assert_slices_tile(&FaultPlan::generate(3, &FaultIntensity::scaled(1.0), 16, 50));
        assert_slices_tile(&FaultPlan::from_events(vec![
            FaultEvent { sync: 4, node: 2, kind: FaultKind::RaplStuck },
            FaultEvent { sync: 1, node: 3, kind: FaultKind::SampleNan },
            FaultEvent { sync: 4, node: 0, kind: FaultKind::MessageLoss },
            FaultEvent { sync: 1, node: 1, kind: FaultKind::SampleDropout },
        ]));
        assert_slices_tile(&JobFaultPlan::generate(11, 6, 40, 0.1));
        assert_slices_tile(&JobFaultPlan::from_events(vec![
            JobFault { epoch: 7, job: 0 },
            JobFault { epoch: 2, job: 5 },
            JobFault { epoch: 2, job: 1 },
        ]));
        assert_slices_tile(&MachineFaultPlan::generate(
            11,
            &MachineFaultIntensity::storm(1.0),
            4,
            200,
        ));
        assert_slices_tile(&MachineFaultPlan::from_events(vec![
            MachineFault { epoch: 9, machine: 2, kind: MachineFaultKind::Crash },
            MachineFault { epoch: 3, machine: 1, kind: MachineFaultKind::Partition { epochs: 2 } },
            MachineFault {
                epoch: 3,
                machine: 0,
                kind: MachineFaultKind::Slow { factor: 2.0, epochs: 3 },
            },
        ]));
    }
}
