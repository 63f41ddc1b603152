//! Exact box-constrained water-filling.
//!
//! Shared by the hierarchical controller's intra-partition redistribution
//! (level 2) and the machine-level scheduler's cross-job governor: given
//! per-item *desired* powers and per-item `[lo, hi]` bounds, find the
//! allocation that hits a total exactly whenever it is feasible, by
//! shifting every item by a common offset `λ` and clamping — the additive
//! analogue of the classic water-filling projection onto a box with a sum
//! constraint.
//!
//! `f(λ) = Σ clamp(dᵢ + λ, loᵢ, hiᵢ)` is piecewise-linear and
//! non-decreasing, so `λ` is solved analytically by walking the sorted
//! breakpoints — no fixed-iteration loops, no residue left behind. The
//! result preserves the ordering of the desired values (more demand never
//! gets less power) and is deterministic for a given input.

/// Distribute `total` across items with desired values `desired[i]` and
/// bounds `[lo[i], hi[i]]`, returning the per-item allocation.
///
/// * If `total ≤ Σ lo`, every item is pinned at its floor (the allocation
///   then *exceeds* `total` — the infeasible case callers must budget for,
///   e.g. δ_min × n below the partition share).
/// * If `total ≥ Σ hi`, every item is pinned at its ceiling (budget left
///   unused).
/// * Otherwise the returned values sum to `total` exactly (to float
///   round-off) and each lies within its bounds.
///
/// # Panics
///
/// Panics if the slices disagree in length, are empty, or any `lo > hi`.
pub fn water_fill(desired: &[f64], lo: &[f64], hi: &[f64], total: f64) -> Vec<f64> {
    let n = desired.len();
    assert!(n > 0, "water_fill needs at least one item");
    assert!(lo.len() == n && hi.len() == n, "water_fill slices must agree in length");
    for i in 0..n {
        assert!(lo[i] <= hi[i], "water_fill bounds inverted at {i}: {} > {}", lo[i], hi[i]);
    }
    let sum_lo: f64 = lo.iter().sum();
    let sum_hi: f64 = hi.iter().sum();
    if total <= sum_lo {
        return lo.to_vec();
    }
    if total >= sum_hi {
        return hi.to_vec();
    }

    let f =
        |lambda: f64| -> f64 { (0..n).map(|i| (desired[i] + lambda).clamp(lo[i], hi[i])).sum() };
    // Breakpoints of the piecewise-linear f: where an item enters or
    // leaves saturation. Below the smallest, f = Σ lo; above the largest,
    // f = Σ hi — so total ∈ (Σ lo, Σ hi) is bracketed by two adjacent
    // breakpoints (or sits left of the first, on the flat Σ lo segment).
    let mut bps: Vec<f64> = (0..n).flat_map(|i| [lo[i] - desired[i], hi[i] - desired[i]]).collect();
    bps.sort_unstable_by(f64::total_cmp);

    let mut prev_bp = bps[0];
    let mut prev_f = f(prev_bp); // == sum_lo
    for &bp in &bps[1..] {
        let cur_f = f(bp);
        if cur_f >= total {
            // Linear segment [prev_bp, bp] crosses the target.
            let lambda = if cur_f > prev_f {
                prev_bp + (total - prev_f) * (bp - prev_bp) / (cur_f - prev_f)
            } else {
                bp
            };
            return (0..n).map(|i| (desired[i] + lambda).clamp(lo[i], hi[i])).collect();
        }
        prev_bp = bp;
        prev_f = cur_f;
    }
    // f(last breakpoint) = Σ hi ≥ total, so the loop always returns.
    unreachable!("total {total} not bracketed by [{sum_lo}, {sum_hi}]");
}

/// [`water_fill`] with uniform bounds for every item.
pub(crate) fn water_fill_uniform(desired: &[f64], lo: f64, hi: f64, total: f64) -> Vec<f64> {
    let lo_v = vec![lo; desired.len()];
    let hi_v = vec![hi; desired.len()];
    water_fill(desired, &lo_v, &hi_v, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn unconstrained_split_is_exact() {
        let caps = water_fill_uniform(&[100.0, 120.0], 98.0, 215.0, 220.0);
        assert!((total(&caps) - 220.0).abs() < 1e-9);
        assert!(caps[1] > caps[0], "ordering preserved: {caps:?}");
    }

    #[test]
    fn saturated_items_release_to_the_rest() {
        // Item 1 wants far more than the pool allows: the common offset λ
        // pulls item 0 down to its floor (98) and item 1 absorbs the rest
        // (122), conserving the total exactly.
        let caps = water_fill_uniform(&[8.0, 300.0], 98.0, 215.0, 220.0);
        assert!((total(&caps) - 220.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[0] - 98.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 122.0).abs() < 1e-9, "{caps:?}");
        assert!(caps[1] > caps[0], "ordering preserved: {caps:?}");
    }

    #[test]
    fn infeasible_low_pins_every_floor() {
        let caps = water_fill_uniform(&[50.0, 60.0, 70.0], 98.0, 215.0, 100.0);
        assert_eq!(caps, vec![98.0, 98.0, 98.0]);
    }

    #[test]
    fn surplus_pins_every_ceiling() {
        let caps = water_fill_uniform(&[100.0, 100.0], 98.0, 215.0, 1000.0);
        assert_eq!(caps, vec![215.0, 215.0]);
    }

    #[test]
    fn per_item_bounds_are_respected() {
        // Job-level bounds: 2-node job [196, 430], 4-node job [392, 860].
        let caps = water_fill(&[300.0, 500.0], &[196.0, 392.0], &[430.0, 860.0], 900.0);
        assert!((total(&caps) - 900.0).abs() < 1e-9, "{caps:?}");
        assert!(caps[0] >= 196.0 && caps[0] <= 430.0, "{caps:?}");
        assert!(caps[1] >= 392.0 && caps[1] <= 860.0, "{caps:?}");
    }

    #[test]
    fn conservation_over_a_grid() {
        // Property: whenever Σlo ≤ total ≤ Σhi the result sums to total.
        let mut rng = des::Rng::seed_from_u64(0x3A7E12);
        for _ in 0..200 {
            let n = 1 + rng.next_below(6) as usize;
            let desired: Vec<f64> = (0..n).map(|_| rng.uniform(10.0, 400.0)).collect();
            let lo: Vec<f64> = (0..n).map(|_| rng.uniform(50.0, 100.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|&l| l + rng.uniform(1.0, 200.0)).collect();
            let sum_lo: f64 = lo.iter().sum();
            let sum_hi: f64 = hi.iter().sum();
            let t = rng.uniform(sum_lo, sum_hi);
            let caps = water_fill(&desired, &lo, &hi, t);
            assert!((total(&caps) - t).abs() < 1e-6, "t={t} caps={caps:?}");
            for i in 0..n {
                assert!(caps[i] >= lo[i] - 1e-12 && caps[i] <= hi[i] + 1e-12);
            }
        }
    }

    #[test]
    fn single_item_clamps() {
        assert_eq!(water_fill_uniform(&[120.0], 98.0, 215.0, 110.0), vec![110.0]);
        assert_eq!(water_fill_uniform(&[120.0], 98.0, 215.0, 50.0), vec![98.0]);
        assert_eq!(water_fill_uniform(&[120.0], 98.0, 215.0, 500.0), vec![215.0]);
    }
}
