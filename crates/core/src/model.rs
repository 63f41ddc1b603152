//! Analytic model of two power-coupled tasks (the paper's Fig. 2 and §IV-A).
//!
//! Under SeeSAw's linearization, a task's time to reach the next
//! synchronization is inversely proportional to its power: `T(P) = E / P`
//! where `E = T·P` is the task's energy need over the interval (equivalently
//! `α = 1/(T·P)` and `T = 1/(αP)`, Eq. 1). Splitting a budget `C` between
//! two such tasks so that both finish together minimizes `max(T_S, T_A)`
//! (Zhang & Hoffmann; Demirci et al.), and the minimizer assigns each task
//! the fraction of `C` matching its fraction of the total energy (Eq. 2).

/// A task whose synchronization interval obeys `T(P) = energy_j / P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearTask {
    /// Energy required to reach the next synchronization, joules.
    pub energy_j: f64,
}

impl LinearTask {
    /// A task observed to take `time_s` at `power_w`.
    pub fn from_observation(time_s: f64, power_w: f64) -> Self {
        assert!(time_s > 0.0 && power_w > 0.0, "observation must be positive");
        LinearTask { energy_j: time_s * power_w }
    }

    /// The paper's α parameter: `α = 1/(T·P) = 1/E` (Eq. 1).
    pub(crate) fn alpha(&self) -> f64 {
        1.0 / self.energy_j
    }

    /// Time to reach the synchronization at a given power, seconds.
    pub fn time_at(&self, power_w: f64) -> f64 {
        assert!(power_w > 0.0);
        self.energy_j / power_w
    }
}

/// The optimal split of budget `c_w` between two linear tasks (Eq. 2), and
/// the common completion time both reach under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalSplit {
    /// Power for the first (simulation) task, watts.
    pub p_sim_w: f64,
    /// Power for the second (analysis) task, watts.
    pub p_analysis_w: f64,
    /// The equalized completion time, seconds.
    pub t_star_s: f64,
}

/// Compute the optimal split: each task receives the fraction of the budget
/// equal to its fraction of the total energy need.
pub fn optimal_split(c_w: f64, sim: LinearTask, analysis: LinearTask) -> OptimalSplit {
    assert!(c_w > 0.0, "budget must be positive");
    let (a_s, a_a) = (sim.alpha(), analysis.alpha());
    let p_sim_w = c_w * a_a / (a_s + a_a);
    let p_analysis_w = c_w * a_s / (a_s + a_a);
    OptimalSplit { p_sim_w, p_analysis_w, t_star_s: sim.time_at(p_sim_w) }
}

/// The objective both controllers minimize: the iteration time under a
/// given split, i.e. the slower task's time (`min max(T_S, T_A)`, §IV-A).
pub fn iteration_time(
    sim: LinearTask,
    analysis: LinearTask,
    p_sim_w: f64,
    p_analysis_w: f64,
) -> f64 {
    sim.time_at(p_sim_w).max(analysis.time_at(p_analysis_w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_example_equalizes_near_77s() {
        // Fig. 2: blue takes 100 s at 90 W, red takes 60 s at 120 W, C = 210 W.
        let blue = LinearTask::from_observation(100.0, 90.0);
        let red = LinearTask::from_observation(60.0, 120.0);
        let split = optimal_split(210.0, blue, red);
        assert!((split.t_star_s - 77.0).abs() < 1.0, "t* = {}", split.t_star_s);
        // Both finish together.
        let t_red = red.time_at(split.p_analysis_w);
        assert!((split.t_star_s - t_red).abs() < 1e-9);
        // Budget is exactly spent.
        assert!((split.p_sim_w + split.p_analysis_w - 210.0).abs() < 1e-9);
    }

    #[test]
    fn optimum_beats_static_split_in_fig2() {
        let blue = LinearTask::from_observation(100.0, 90.0);
        let red = LinearTask::from_observation(60.0, 120.0);
        let split = optimal_split(210.0, blue, red);
        let at_initial = iteration_time(blue, red, 90.0, 120.0);
        let at_opt = iteration_time(blue, red, split.p_sim_w, split.p_analysis_w);
        assert!(at_opt < at_initial, "{at_opt} !< {at_initial}");
    }

    #[test]
    fn alpha_matches_eq1() {
        let t = LinearTask::from_observation(4.0, 110.0);
        assert!((t.alpha() - 1.0 / (4.0 * 110.0)).abs() < 1e-15);
    }

    #[test]
    fn equal_tasks_split_evenly() {
        let t = LinearTask::from_observation(3.0, 100.0);
        let split = optimal_split(220.0, t, t);
        assert!((split.p_sim_w - 110.0).abs() < 1e-9);
        assert!((split.p_analysis_w - 110.0).abs() < 1e-9);
    }

    #[test]
    fn hungrier_task_gets_more_power() {
        let hungry = LinearTask::from_observation(4.0, 110.0); // E = 440
        let light = LinearTask::from_observation(1.0, 110.0); // E = 110
        let split = optimal_split(220.0, hungry, light);
        assert!(split.p_sim_w > split.p_analysis_w);
        // In proportion to energy: 440/550 of the budget.
        assert!((split.p_sim_w - 220.0 * 440.0 / 550.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use des::Rng;

    /// Optimality (the paper's §IV-A argument): perturbing the optimal
    /// split in either direction cannot reduce the iteration time.
    #[test]
    fn equal_time_point_is_optimal() {
        let mut rng = Rng::seed_from_u64(0x40_01);
        for _case in 0..128 {
            let e_s = rng.uniform(10.0, 10_000.0);
            let e_a = rng.uniform(10.0, 10_000.0);
            let c = rng.uniform(50.0, 1_000.0);
            let eps = rng.uniform(0.001, 0.4);
            let s = LinearTask { energy_j: e_s };
            let a = LinearTask { energy_j: e_a };
            let opt = optimal_split(c, s, a);
            let t_opt = iteration_time(s, a, opt.p_sim_w, opt.p_analysis_w);
            let shift = eps * opt.p_sim_w.min(opt.p_analysis_w);
            let t_plus = iteration_time(s, a, opt.p_sim_w + shift, opt.p_analysis_w - shift);
            let t_minus = iteration_time(s, a, opt.p_sim_w - shift, opt.p_analysis_w + shift);
            assert!(t_plus >= t_opt - 1e-9);
            assert!(t_minus >= t_opt - 1e-9);
        }
    }

    /// The split always exhausts the budget and both times are equal.
    #[test]
    fn split_exact_and_equalizing() {
        let mut rng = Rng::seed_from_u64(0x40_02);
        for _case in 0..128 {
            let e_s = rng.uniform(10.0, 10_000.0);
            let e_a = rng.uniform(10.0, 10_000.0);
            let c = rng.uniform(50.0, 1_000.0);
            let s = LinearTask { energy_j: e_s };
            let a = LinearTask { energy_j: e_a };
            let opt = optimal_split(c, s, a);
            assert!((opt.p_sim_w + opt.p_analysis_w - c).abs() < 1e-9 * c);
            let ts = s.time_at(opt.p_sim_w);
            let ta = a.time_at(opt.p_analysis_w);
            assert!((ts - ta).abs() < 1e-9 * ts.max(ta));
        }
    }
}
