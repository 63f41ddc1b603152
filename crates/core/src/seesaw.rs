//! The SeeSAw controller (paper §IV).
//!
//! SeeSAw balances a global power budget `C` between the simulation and
//! analysis partitions so both reach each synchronization point at the same
//! time. It uses **energy** (`E = T × P`) as the feedback metric: every `w`
//! synchronizations it averages the observed per-partition time and power
//! (noise suppression), linearizes the power→time relation through
//! `α = 1/(T·P)` (Eq. 1), jumps to the analytically optimal split
//! `P_OPT = C·α_peer/(α_S + α_A)` (Eq. 2), and damps the step with an
//! exponentially weighted moving average whose weight is the task's share
//! of the budget (Eqs. 3–4). Per-node caps are the partition total divided
//! evenly, clamped to `[δ_min, δ_max]` with δ_max taking priority on ties.
//!
//! ### A note on Eq. 4
//!
//! As printed, Eq. 4 blends `P_OPT` with itself and so degenerates to
//! `P_new = P_OPT`. The surrounding text ("past information is consolidated
//! with the present using an exponentially weighted moving average") makes
//! the intent clear: blend the new optimum with the *previous allocation*.
//! [`EwmaMode::BlendPrevious`] implements that intent and is the default;
//! [`EwmaMode::PaperLiteral`] keeps the printed form for comparison.

use crate::controller::Controller;
use crate::model::{optimal_split, LinearTask};
use crate::types::{split_with_limits, Allocation, Limits, Role, SyncObservation};

/// How Eq. 4's moving average is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EwmaMode {
    /// `P_new = P_OPT` — the equation exactly as printed.
    PaperLiteral,
    /// `P_new = r·P_OPT + (1−r)·P_prev`, renormalized to the budget — the
    /// evident intent (default).
    BlendPrevious,
}

/// SeeSAw configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeeSawConfig {
    /// Global power budget `C`, watts (e.g. `110 × n` in the paper).
    pub budget_w: f64,
    /// Window `w`: reallocate every `w` synchronizations, averaging the
    /// feedback over the window.
    pub window: usize,
    /// Hardware per-node cap limits (δ_min/δ_max).
    pub limits: Limits,
    /// Eq. 4 interpretation.
    pub ewma: EwmaMode,
    /// Ignore synchronization step 0, which is outside the main loop and
    /// contains setup effects (paper §VII-B1).
    pub skip_step_zero: bool,
}

impl SeeSawConfig {
    /// Paper defaults for an `n`-node job: 110 W per node budget, `w = 1`,
    /// Theta limits, intent EWMA.
    pub fn paper_default(n_nodes: usize) -> Self {
        SeeSawConfig {
            budget_w: 110.0 * n_nodes as f64,
            window: 1,
            limits: Limits::theta(),
            ewma: EwmaMode::BlendPrevious,
            skip_step_zero: true,
        }
    }
}

/// The SeeSAw controller.
#[derive(Debug, Clone)]
pub struct SeeSaw {
    cfg: SeeSawConfig,
    /// Per-sync `(time, power)` samples for each partition since the last
    /// allocation.
    buf_sim: Vec<(f64, f64)>,
    buf_ana: Vec<(f64, f64)>,
    /// Previous partition power totals, watts (EWMA memory).
    prev: Option<(f64, f64)>,
    tracer: obs::Tracer,
}

impl SeeSaw {
    /// Build a controller.
    pub fn new(cfg: SeeSawConfig) -> Self {
        assert!(cfg.window >= 1, "window must be at least 1");
        assert!(cfg.budget_w > 0.0, "budget must be positive");
        SeeSaw {
            cfg,
            buf_sim: Vec::new(),
            buf_ana: Vec::new(),
            prev: None,
            tracer: obs::Tracer::off(),
        }
    }

    /// Eq. 1 linearizes through `α = 1/(T·P)`: the feedback is usable only
    /// when both factors are finite and strictly positive. Anything else
    /// (a crashed monitor reporting NaN, a dropout reporting 0, a counter
    /// wrap reporting ∞) must never reach the averaging window.
    fn usable(time_s: f64, power_w: f64) -> bool {
        time_s.is_finite() && time_s > 0.0 && power_w.is_finite() && power_w > 0.0
    }

    fn mean(buf: &[(f64, f64)]) -> (f64, f64) {
        let n = buf.len() as f64;
        let (t, p) = buf.iter().fold((0.0, 0.0), |(ts, ps), &(t, p)| (ts + t, ps + p));
        (t / n, p / n)
    }
}

impl Controller for SeeSaw {
    fn name(&self) -> &'static str {
        "seesaw"
    }

    fn on_sync(&mut self, obs: &SyncObservation) -> Option<Allocation> {
        if self.cfg.skip_step_zero && obs.step == 0 {
            return None;
        }
        let sim = obs.partition(Role::Simulation)?;
        let ana = obs.partition(Role::Analysis)?;
        // Validate BEFORE buffering: a corrupt sample held in `buf_*` would
        // poison the whole window mean. Hold the current allocation instead.
        if !Self::usable(sim.time_s, sim.power_w)
            || !Self::usable(ana.time_s, ana.power_w)
            || !sim.cap_per_node_w.is_finite()
            || !ana.cap_per_node_w.is_finite()
        {
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::ControllerHold {
                    sync: obs.step,
                    reason: "corrupt_sample".into(),
                });
            }
            return None;
        }
        // Seed the EWMA memory from the caps in force at first observation.
        if self.prev.is_none() {
            self.prev = Some((
                sim.cap_per_node_w * sim.nodes as f64,
                ana.cap_per_node_w * ana.nodes as f64,
            ));
        }
        self.buf_sim.push((sim.time_s, sim.power_w));
        self.buf_ana.push((ana.time_s, ana.power_w));
        if self.buf_sim.len() < self.cfg.window {
            return None;
        }
        let (t_s, p_s) = Self::mean(&self.buf_sim);
        let (t_a, p_a) = Self::mean(&self.buf_ana);
        self.buf_sim.clear();
        self.buf_ana.clear();
        // Degenerate feedback (zero time or power) — keep current caps.
        if t_s <= 0.0 || p_s <= 0.0 || t_a <= 0.0 || p_a <= 0.0 {
            if self.tracer.is_enabled() {
                self.tracer.emit(obs::Event::ControllerHold {
                    sync: obs.step,
                    reason: "degenerate_feedback".into(),
                });
            }
            return None;
        }
        let c = self.cfg.budget_w;
        let opt = optimal_split(
            c,
            LinearTask::from_observation(t_s, p_s),
            LinearTask::from_observation(t_a, p_a),
        );
        // Eqs. 3–4: EWMA with weight r = P_OPT / C on the fresh optimum.
        let (new_s, new_a) = match self.cfg.ewma {
            EwmaMode::PaperLiteral => (opt.p_sim_w, opt.p_analysis_w),
            EwmaMode::BlendPrevious => {
                let (prev_s, prev_a) = self.prev.expect("seeded above");
                let r_s = opt.p_sim_w / c;
                let r_a = opt.p_analysis_w / c;
                let s = r_s * opt.p_sim_w + (1.0 - r_s) * prev_s;
                let a = r_a * opt.p_analysis_w + (1.0 - r_a) * prev_a;
                // The per-task weights differ, so renormalize to the budget.
                let scale = c / (s + a);
                (s * scale, a * scale)
            }
        };
        let alloc = split_with_limits(self.cfg.limits, c, new_s, sim.nodes, new_a, ana.nodes);
        if self.tracer.is_enabled() {
            let blend_sim_node = new_s / sim.nodes as f64;
            let blend_ana_node = new_a / ana.nodes as f64;
            let clamped = (blend_sim_node - alloc.sim_node_w).abs() > 1e-9
                || (blend_ana_node - alloc.analysis_node_w).abs() > 1e-9;
            self.tracer.emit(obs::Event::Decision(Box::new(obs::DecisionInfo {
                sync: obs.step,
                sim_nodes: sim.nodes,
                analysis_nodes: ana.nodes,
                alpha_sim: LinearTask::from_observation(t_s, p_s).alpha(),
                alpha_analysis: LinearTask::from_observation(t_a, p_a).alpha(),
                p_opt_sim_w: opt.p_sim_w,
                p_opt_analysis_w: opt.p_analysis_w,
                blend_sim_w: new_s,
                blend_analysis_w: new_a,
                sim_node_w: alloc.sim_node_w,
                analysis_node_w: alloc.analysis_node_w,
                clamped,
            })));
        }
        self.prev =
            Some((alloc.sim_node_w * sim.nodes as f64, alloc.analysis_node_w * ana.nodes as f64));
        Some(alloc)
    }

    fn reset(&mut self) {
        self.buf_sim.clear();
        self.buf_ana.clear();
        self.prev = None;
    }

    fn budget_w(&self) -> Option<f64> {
        Some(self.cfg.budget_w)
    }

    fn set_budget_w(&mut self, budget_w: f64) {
        if budget_w.is_finite() && budget_w > 0.0 {
            self.cfg.budget_w = budget_w;
        }
    }

    fn attach_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeSample;

    /// Build an observation for 1 sim + 1 analysis node.
    fn obs(
        step: u64,
        t_s: f64,
        p_s: f64,
        cap_s: f64,
        t_a: f64,
        p_a: f64,
        cap_a: f64,
    ) -> SyncObservation {
        SyncObservation {
            step,
            nodes: vec![
                NodeSample {
                    node: 0,
                    role: Role::Simulation,
                    time_s: t_s,
                    power_w: p_s,
                    cap_w: cap_s,
                },
                NodeSample {
                    node: 1,
                    role: Role::Analysis,
                    time_s: t_a,
                    power_w: p_a,
                    cap_w: cap_a,
                },
            ],
        }
    }

    fn cfg() -> SeeSawConfig {
        SeeSawConfig {
            budget_w: 220.0,
            window: 1,
            limits: Limits::theta(),
            ewma: EwmaMode::BlendPrevious,
            skip_step_zero: true,
        }
    }

    #[test]
    fn skips_step_zero() {
        let mut c = SeeSaw::new(cfg());
        assert!(c.on_sync(&obs(0, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
        assert!(c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_some());
    }

    #[test]
    fn window_gates_allocations() {
        let mut c = SeeSaw::new(SeeSawConfig { window: 3, ..cfg() });
        assert!(c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
        assert!(c.on_sync(&obs(2, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
        assert!(c.on_sync(&obs(3, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_some());
        // Next window starts fresh.
        assert!(c.on_sync(&obs(4, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
    }

    #[test]
    fn gives_more_power_to_higher_energy_task() {
        let mut c = SeeSaw::new(cfg());
        // Sim: 4 s × 110 W = 440 J. Analysis: 2 s × 100 W = 200 J.
        let alloc = c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).unwrap();
        assert!(alloc.sim_node_w > alloc.analysis_node_w, "{alloc:?}");
    }

    #[test]
    fn paper_literal_jumps_to_optimum() {
        let mut c = SeeSaw::new(SeeSawConfig { ewma: EwmaMode::PaperLiteral, ..cfg() });
        let alloc = c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).unwrap();
        // E_S = 440, E_A = 200 -> unclamped optimum P_S = 220·440/640 =
        // 151.25 W, P_A = 68.75 W. Analysis is below δ_min = 98, so it is
        // floored there and simulation receives the remaining budget.
        assert_eq!(alloc.analysis_node_w, 98.0, "{alloc:?}");
        assert!((alloc.sim_node_w - 122.0).abs() < 1e-9, "{alloc:?}");
    }

    #[test]
    fn blend_damps_the_jump() {
        // Budget 240 so the optimum stays inside [δ_min, δ_max] and the
        // EWMA damping is visible without clamping.
        let wide = SeeSawConfig { budget_w: 240.0, ..cfg() };
        let mut lit = SeeSaw::new(SeeSawConfig { ewma: EwmaMode::PaperLiteral, ..wide });
        let mut blend = SeeSaw::new(wide);
        // E_S = 480, E_A = 360 -> literal optimum P_S = 240·480/840 = 137.14.
        let o = obs(1, 4.0, 120.0, 120.0, 3.0, 120.0, 120.0);
        let a_lit = lit.on_sync(&o).unwrap();
        let a_blend = blend.on_sync(&o).unwrap();
        assert!((a_lit.sim_node_w - 137.14).abs() < 0.01, "{a_lit:?}");
        // The blended allocation sits strictly between the previous (120) and
        // the literal optimum.
        assert!(
            a_blend.sim_node_w > 120.0 && a_blend.sim_node_w < a_lit.sim_node_w,
            "{a_blend:?} vs {a_lit:?}"
        );
    }

    #[test]
    fn fixed_point_on_linear_plant() {
        // Plant: T = E/P with E_S = 440, E_A = 330; power fully consumed.
        let mut c = SeeSaw::new(cfg());
        let (e_s, e_a) = (440.0, 330.0);
        let (mut cap_s, mut cap_a) = (110.0, 110.0);
        for step in 1..40 {
            let (t_s, t_a) = (e_s / cap_s, e_a / cap_a);
            if let Some(a) = c.on_sync(&obs(step, t_s, cap_s, cap_s, t_a, cap_a, cap_a)) {
                cap_s = a.sim_node_w;
                cap_a = a.analysis_node_w;
            }
        }
        // Optimal: P_S = 220·440/770 = 125.71…, P_A = 94.28… -> clamped to 98,
        // sim gets the remainder 122.
        let t_s = e_s / cap_s;
        let t_a = e_a / cap_a;
        // Times equalized within 10% (limits prevent exact equality here).
        assert!((t_s - t_a).abs() / t_s.max(t_a) < 0.12, "t_s={t_s} t_a={t_a}");
        assert!((cap_s + cap_a - 220.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_point_without_clamping_equalizes_times() {
        let mut c = SeeSaw::new(SeeSawConfig { budget_w: 240.0, ..cfg() });
        let (e_s, e_a) = (440.0, 330.0);
        let (mut cap_s, mut cap_a) = (120.0, 120.0);
        for step in 1..60 {
            let (t_s, t_a) = (e_s / cap_s, e_a / cap_a);
            if let Some(a) = c.on_sync(&obs(step, t_s, cap_s, cap_s, t_a, cap_a, cap_a)) {
                cap_s = a.sim_node_w;
                cap_a = a.analysis_node_w;
            }
        }
        // Unclamped optimum: P_S = 240·440/770 = 137.14, P_A = 102.86.
        assert!((cap_s - 137.14).abs() < 0.5, "{cap_s}");
        assert!((cap_a - 102.86).abs() < 0.5, "{cap_a}");
        let (t_s, t_a) = (e_s / cap_s, e_a / cap_a);
        assert!((t_s - t_a).abs() < 0.05 * t_s, "t_s={t_s} t_a={t_a}");
    }

    #[test]
    fn budget_is_conserved() {
        let mut c = SeeSaw::new(cfg());
        let alloc = c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).unwrap();
        let total = alloc.sim_node_w + alloc.analysis_node_w;
        assert!(total <= 220.0 + 1e-9, "{total}");
    }

    #[test]
    fn degenerate_feedback_keeps_caps() {
        let mut c = SeeSaw::new(cfg());
        assert!(c.on_sync(&obs(1, 0.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
        assert!(c.on_sync(&obs(2, 4.0, 0.0, 110.0, 2.0, 100.0, 110.0)).is_none());
    }

    #[test]
    fn corrupt_samples_never_enter_the_window() {
        // window = 2: a NaN sample between two good ones must not count
        // toward the window (and must not poison the mean).
        let mut c = SeeSaw::new(SeeSawConfig { window: 2, ..cfg() });
        assert!(c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
        assert!(c.on_sync(&obs(2, f64::NAN, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
        let alloc = c
            .on_sync(&obs(3, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0))
            .expect("two valid samples complete the window");
        assert!(alloc.sim_node_w.is_finite() && alloc.analysis_node_w.is_finite(), "{alloc:?}");
        assert!(alloc.sim_node_w > alloc.analysis_node_w, "{alloc:?}");
    }

    #[test]
    fn nan_zero_and_infinite_feedback_hold_the_allocation() {
        let mut c = SeeSaw::new(cfg());
        for bad in [f64::NAN, 0.0, f64::INFINITY, -3.0] {
            for corrupted in [
                obs(1, bad, 110.0, 110.0, 2.0, 100.0, 110.0), // sim time
                obs(1, 4.0, bad, 110.0, 2.0, 100.0, 110.0),   // sim power
                obs(1, 4.0, 110.0, 110.0, bad, 100.0, 110.0), // analysis time
                obs(1, 4.0, 110.0, 110.0, 2.0, bad, 110.0),   // analysis power
            ] {
                assert!(c.on_sync(&corrupted).is_none(), "bad = {bad}");
            }
        }
        // The controller still works once clean feedback returns.
        let alloc = c.on_sync(&obs(2, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).unwrap();
        assert!(alloc.sim_node_w.is_finite(), "{alloc:?}");
    }

    #[test]
    fn budget_renormalization_rescales_the_split() {
        let mut c = SeeSaw::new(cfg());
        assert_eq!(c.budget_w(), Some(220.0));
        // Node dropouts elsewhere in the job release budget: shrink C and
        // the very next allocation honours the smaller envelope.
        c.set_budget_w(200.0);
        assert_eq!(c.budget_w(), Some(200.0));
        let alloc = c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).unwrap();
        assert!(alloc.sim_node_w + alloc.analysis_node_w <= 200.0 + 1e-9, "{alloc:?}");
        // Nonsense budgets are ignored rather than adopted.
        c.set_budget_w(f64::NAN);
        c.set_budget_w(-10.0);
        assert_eq!(c.budget_w(), Some(200.0));
    }

    #[test]
    fn reset_clears_state() {
        let mut c = SeeSaw::new(SeeSawConfig { window: 2, ..cfg() });
        let _ = c.on_sync(&obs(1, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0));
        c.reset();
        // Window restarts: first post-reset sync cannot allocate.
        assert!(c.on_sync(&obs(5, 4.0, 110.0, 110.0, 2.0, 100.0, 110.0)).is_none());
    }

    #[test]
    fn missing_partition_is_ignored() {
        let mut c = SeeSaw::new(cfg());
        let o = SyncObservation {
            step: 1,
            nodes: vec![NodeSample {
                node: 0,
                role: Role::Simulation,
                time_s: 1.0,
                power_w: 100.0,
                cap_w: 110.0,
            }],
        };
        assert!(c.on_sync(&o).is_none());
    }
}
