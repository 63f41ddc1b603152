//! Verlet neighbor lists built from the cell grid.
//!
//! A half list (each pair stored once) with a skin margin: the
//! list remains valid until some particle has moved more than half the
//! skin since the last build, at which point LAMMPS-style engines rebuild —
//! this is the "update neighbor lists" step 5 of the Verlet-Splitanalysis
//! flow and is communication/memory intensive on real machines.
//!
//! Stored as LAMMPS stores its half list: per sweep atom, the run of its
//! partners (CSR), so a pair costs one `u32` and the force kernel keeps
//! the sweep atom's position and force in registers across its run.
//!
//! The list owns its storage across rebuilds: [`NeighborList::rebuild`]
//! re-bins the persistent cell grid and sweeps it straight into the
//! existing run vectors, so a steady-state engine rebuilds without
//! allocating. The sweep is one serial pass in cell order, so the pair
//! stream does not depend on the thread count.

use crate::cell_list::{CellList, LANE_WIDTH};
use crate::vec3::{min_image_within_box, Vec3};

/// Candidates per hit bitmask (one `u64`). A multiple of the lane width,
/// so a batch rounded up to whole lanes still fits the `r²` buffer.
const BATCH: usize = u64::BITS as usize;
const _: () = assert!(BATCH.is_multiple_of(LANE_WIDTH));

/// A half neighbor list in LAMMPS's CSR shape: one run of partners per
/// sweep atom.
#[derive(Debug, Clone)]
pub struct NeighborList {
    /// Cutoff radius the list was built for.
    pub cutoff: f64,
    /// Extra margin beyond the cutoff.
    pub skin: f64,
    /// Run offsets, one per cell-sorted slot plus one: the atom in slot
    /// `k` (the sweep atom `cells.order()[k]`) has the partners
    /// `partners[first[k]..first[k + 1]]`.
    first: Vec<u32>,
    /// Partner atom ids, run after run, in cell-sweep order.
    partners: Vec<u32>,
    /// Candidate partners the last sweep tested: a plain counter, bumped
    /// once per candidate range. The pairs it kept are `partners.len()`.
    candidates: u64,
    /// Positions at build time (displacement tracking).
    ref_pos: Vec<Vec3>,
    box_len: f64,
    /// Persistent cell grid, re-binned in place on rebuild.
    cells: CellList,
}

/// The list as the force kernel walks it: the atom `sweep[k]` has the
/// partners `partners[first[k]..first[k + 1]]`, and the runs follow one
/// another in `k` order.
pub(crate) struct Runs<'a> {
    pub(crate) sweep: &'a [u32],
    pub(crate) first: &'a [u32],
    pub(crate) partners: &'a [u32],
}

impl NeighborList {
    /// Build from scratch. `positions` must be wrapped into the box.
    ///
    /// The pair ordering fixes the force kernel's floating-point
    /// reduction order; `sweep` documents what pins it.
    pub fn build(positions: &[Vec3], box_len: f64, cutoff: f64, skin: f64) -> Self {
        assert!(cutoff > 0.0 && skin >= 0.0);
        let reach = cutoff + skin;
        let cells = CellList::build(positions, box_len, reach);
        let mut nl = NeighborList {
            cutoff,
            skin,
            first: Vec::new(),
            partners: Vec::new(),
            candidates: 0,
            ref_pos: Vec::new(),
            box_len,
            cells,
        };
        nl.scan();
        nl.ref_pos.extend_from_slice(positions);
        nl
    }

    /// Rebuild in place for new positions, reusing all storage. The atom
    /// count and box geometry must match the original
    /// [`NeighborList::build`]; positions must be wrapped into the box.
    pub fn rebuild(&mut self, positions: &[Vec3]) {
        self.cells.rebin(positions);
        self.scan();
        self.ref_pos.clear();
        self.ref_pos.extend_from_slice(positions);
    }

    /// Sweep the (already binned) cell grid into the runs.
    fn scan(&mut self) {
        let reach = self.cutoff + self.skin;
        self.candidates = sweep(&self.cells, reach * reach, &mut self.first, &mut self.partners);
    }

    /// The runs, for the force kernel.
    pub(crate) fn runs(&self) -> Runs<'_> {
        Runs { sweep: self.cells.order(), first: &self.first, partners: &self.partners }
    }

    /// Candidate pairs the last build or rebuild tested.
    pub(crate) fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Number of stored pairs (the force kernel's work measure).
    pub fn npairs(&self) -> usize {
        self.partners.len()
    }

    /// True if any particle has moved more than half the skin since the
    /// list was built (the standard rebuild criterion).
    pub(crate) fn needs_rebuild(&self, positions: &[Vec3]) -> bool {
        let limit_sq = (0.5 * self.skin) * (0.5 * self.skin);
        positions
            .iter()
            .zip(&self.ref_pos)
            .any(|(p, r)| (*p - *r).minimum_image(self.box_len).norm_sq() > limit_sq)
    }
}

#[cfg(test)]
impl NeighborList {
    /// Every stored pair as `(min, max)`, in list order: the flat pair
    /// stream the runs encode.
    pub(crate) fn pairs(&self) -> Vec<(u32, u32)> {
        let r = self.runs();
        let run = |k: usize| &r.partners[r.first[k] as usize..r.first[k + 1] as usize];
        (0..r.sweep.len())
            .flat_map(|k| run(k).iter().map(move |&j| (r.sweep[k].min(j), r.sweep[k].max(j))))
            .collect()
    }
}

/// Sweep every pair within `sqrt(reach_sq)` into runs, in the order the
/// force kernel's reduction is pinned to: cells ascending; within a cell
/// its atoms in ascending id, each the sweep atom of one run; per sweep
/// atom the rest of its own cell, then the higher-indexed neighbor cells
/// in [`CellList::neighborhood`] order, each in ascending atom id.
///
/// Every one of those candidate sets is a contiguous slot range of the
/// cell-sorted coordinate arrays. Per range, one branch-free loop over
/// the three coordinate slices — which the compiler vectorizes — stores
/// `r²` per candidate; it runs whole lanes, past the range's end into the
/// next cell or the arrays' padding. Below 4 cells per side `r²` is
/// exactly `(pj - pi).minimum_image(l).norm_sq()` (positions are wrapped,
/// so `|d| < l` and the divide-free minimum image applies). From 4 on,
/// each range comes trimmed and with its run's image shift (see
/// [`CellList::higher_neighbor_spans`]); the shifted `r²` has those bits
/// wherever either is within the reach, so the same candidates pass.
/// `r² <= reach²` over the range proper then folds into a bitmask, whose
/// set bits (about one candidate in six) are emitted lowest first.
/// Returns the candidates tested.
fn sweep(cells: &CellList, reach_sq: f64, first: &mut Vec<u32>, partners: &mut Vec<u32>) -> u64 {
    let l = cells.box_len;
    let half = 0.5 * l;
    let [sx, sy, sz] = cells.sorted_coords();
    let order = cells.order();
    // A cell is trimmed only past the reach by a relative margin far above
    // the rounding of binning and of the face distances.
    let trim_sq = reach_sq * (1.0 + 1e-9);
    // At 4 or more cells per side an atom's own cell never wraps.
    let own_shift = cells.shifted().then_some([0.0; 3]);
    let mut r2 = [0.0f64; BATCH];
    let mut candidates = 0u64;
    first.clear();
    partners.clear();
    first.push(0);
    for cell in 0..cells.ncells() {
        let own = cells.span(cell);
        for k in own.clone() {
            let (xi, yi, zi) = (sx[k], sy[k], sz[k]);
            let higher = cells.higher_neighbor_spans(cell, [xi, yi, zi], trim_sq);
            let ranges = std::iter::once((k + 1..own.end, own_shift)).chain(higher);
            for (range, shift) in ranges {
                candidates += range.len() as u64;
                for base in range.clone().step_by(BATCH) {
                    let n = (range.end - base).min(BATCH);
                    let lanes = base..base + n.next_multiple_of(LANE_WIDTH);
                    let r2 = &mut r2[..lanes.len()];
                    let coords = sx[lanes.clone()].iter().zip(&sy[lanes.clone()]).zip(&sz[lanes]);
                    if let Some([hx, hy, hz]) = shift {
                        for (r, ((&x, &y), &z)) in r2.iter_mut().zip(coords) {
                            let (dx, dy, dz) = (x - xi + hx, y - yi + hy, z - zi + hz);
                            *r = dx * dx + dy * dy + dz * dz;
                        }
                    } else {
                        for (r, ((&x, &y), &z)) in r2.iter_mut().zip(coords) {
                            let dx = min_image_within_box(x - xi, l, half);
                            let dy = min_image_within_box(y - yi, l, half);
                            let dz = min_image_within_box(z - zi, l, half);
                            *r = dx * dx + dy * dy + dz * dz;
                        }
                    }
                    let mut hits = 0u64;
                    for (t, &r) in r2[..n].iter().enumerate() {
                        hits |= u64::from(r <= reach_sq) << t;
                    }
                    while hits != 0 {
                        partners.push(order[base + hits.trailing_zeros() as usize]);
                        hits &= hits - 1;
                    }
                }
            }
            first.push(u32::try_from(partners.len()).expect("pair offsets are u32"));
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::water_ion_box;
    use crate::vec3::tests::minimum_image_reference;

    /// Reference O(N²) pair enumeration for correctness tests.
    fn brute_force_pairs(positions: &[Vec3], box_len: f64, reach: f64) -> Vec<(u32, u32)> {
        let reach_sq = reach * reach;
        let mut out = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let d = (positions[j] - positions[i]).minimum_image(box_len);
                if d.norm_sq() <= reach_sq {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The scalar scan [`sweep`] replaced, kept verbatim as its oracle:
    /// gathers through the per-cell id lists, recomputes each cell's
    /// neighborhood, and takes the divide-and-round minimum image.
    fn reference_scan(cells: &CellList, positions: &[Vec3], reach_sq: f64) -> Vec<(u32, u32)> {
        let box_len = cells.box_len;
        let mut out = Vec::new();
        for cell in 0..cells.ncells() {
            let members = cells.cell(cell);
            let (scratch, nbhd_len) = CellList::neighborhood(cells.cells_per_side, cell);
            for (k, &i) in members.iter().enumerate() {
                let pi = positions[i as usize];
                // Pairs within the same cell.
                for &j in &members[k + 1..] {
                    let d = minimum_image_reference(positions[j as usize] - pi, box_len);
                    if d.norm_sq() <= reach_sq {
                        out.push((i.min(j), i.max(j)));
                    }
                }
                // Pairs with higher-indexed cells (avoid double visits).
                for &nc in &scratch[..nbhd_len] {
                    if nc <= cell {
                        continue;
                    }
                    for &j in cells.cell(nc) {
                        let d = minimum_image_reference(positions[j as usize] - pi, box_len);
                        if d.norm_sq() <= reach_sq {
                            out.push((i.min(j), i.max(j)));
                        }
                    }
                }
            }
        }
        out
    }

    /// What the scalar scan makes of `positions` on `nl`'s grid geometry.
    fn reference_pairs(nl: &NeighborList, positions: &[Vec3]) -> Vec<(u32, u32)> {
        let reach = nl.cutoff + nl.skin;
        let cells = CellList::build(positions, nl.box_len, reach);
        reference_scan(&cells, positions, reach * reach)
    }

    #[test]
    fn pair_stream_equals_the_scalar_scan() {
        for dim in [1usize, 2] {
            for seed in [3u64, 11, 42] {
                let sys = water_ion_box(dim, 1.0, seed);
                // Every atom displaced by up to ±0.2 per axis and re-wrapped:
                // some change cell, so `rebuild` re-sorts for real.
                let mut rng = des::Rng::seed_from_u64(seed);
                let mut jitter = || rng.uniform(-0.2, 0.2);
                let moved: Vec<Vec3> = sys
                    .pos
                    .iter()
                    .map(|&p| (p + Vec3::new(jitter(), jitter(), jitter())).wrap(sys.box_len))
                    .collect();
                let mut nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
                let rebuilt = reference_pairs(&nl, &moved);
                let what = format!("dim {dim} seed {seed}");
                assert!(
                    nl.pairs() == reference_pairs(&nl, &sys.pos),
                    "fresh build diverged: {what}"
                );
                nl.rebuild(&moved);
                assert!(nl.pairs() == rebuilt, "rebuild diverged: {what}");
            }
        }
    }

    #[test]
    fn matches_brute_force_from_one_to_four_cells_per_side() {
        let sys = water_ion_box(1, 1.0, 5);
        let pos = &sys.pos[..400];
        // reach = box / n (a shade under, so the floor lands on n): the
        // one-cell box, the deduplicated 2-grid, the smallest full
        // 27-neighborhood, and the benchmark's own 4.
        for n in 1..=4usize {
            let reach = sys.box_len / n as f64 - 1e-9;
            let nl = NeighborList::build(pos, sys.box_len, reach, 0.0);
            assert_eq!(nl.cells.cells_per_side, n);
            let brute = brute_force_pairs(pos, sys.box_len, reach);
            assert_eq!(sorted(nl.pairs()), brute, "cells_per_side {n}");
            assert!(nl.pairs() == reference_pairs(&nl, pos), "cells_per_side {n}");
        }
    }

    /// The trim leaves out only cells no candidate of reaches: with a
    /// third of the atoms snapped onto cell faces, or one ulp to either
    /// side, where binning and the face distances round, the pair stream
    /// at 4 to 6 cells per side is still the untrimmed scalar scan's.
    #[test]
    fn trimmed_runs_lose_no_pair_at_cell_faces() {
        let sys = water_ion_box(1, 1.0, 21);
        let l = sys.box_len;
        for n in 4..=6usize {
            let w = l / n as f64;
            let pos: Vec<Vec3> = sys
                .pos
                .iter()
                .enumerate()
                .map(|(a, &p)| {
                    let snap = |x: f64| {
                        let face = (x / w).round() * w;
                        let face = match a % 9 {
                            0 => face,
                            3 => face.next_up(),
                            _ => face.next_down(),
                        };
                        face.clamp(0.0, l.next_down())
                    };
                    if a % 3 == 0 {
                        Vec3::new(snap(p.x), snap(p.y), snap(p.z))
                    } else {
                        p
                    }
                })
                .collect();
            let nl = NeighborList::build(&pos, l, w - 1e-9, 0.0);
            assert_eq!(nl.cells.cells_per_side, n);
            assert!(nl.candidates() < untrimmed_candidates(&nl.cells), "{n}: no trim");
            assert!(nl.pairs() == reference_pairs(&nl, &pos), "{n} cells per side");
        }
    }

    #[test]
    fn matches_brute_force_on_real_system() {
        let sys = water_ion_box(1, 1.0, 5);
        // Take a subset for O(N²) tractability.
        let pos = &sys.pos[..400];
        let nl = NeighborList::build(pos, sys.box_len, 2.5, 0.3);
        let brute = sorted(brute_force_pairs(pos, sys.box_len, 2.8));
        let fast = sorted(nl.pairs());
        assert_eq!(fast, brute);
    }

    #[test]
    fn no_rebuild_needed_immediately() {
        let sys = water_ion_box(1, 1.0, 6);
        let nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.3);
        assert!(!nl.needs_rebuild(&sys.pos));
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let sys_a = water_ion_box(1, 1.0, 6);
        let sys_b = water_ion_box(1, 1.0, 17);
        let mut reused = NeighborList::build(&sys_a.pos, sys_a.box_len, 2.5, 0.3);
        reused.rebuild(&sys_b.pos);
        let fresh = NeighborList::build(&sys_b.pos, sys_b.box_len, 2.5, 0.3);
        assert_eq!(reused.pairs(), fresh.pairs(), "in-place rebuild diverged from fresh build");
        assert!(!reused.needs_rebuild(&sys_b.pos), "ref positions not refreshed");
    }

    #[test]
    fn rebuild_triggers_after_large_move() {
        let sys = water_ion_box(1, 1.0, 6);
        let nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.3);
        let mut moved = sys.pos.clone();
        moved[10].x = (moved[10].x + 0.2) % sys.box_len; // > skin/2 = 0.15
        assert!(nl.needs_rebuild(&moved));
    }

    #[test]
    fn small_move_within_skin_is_fine() {
        let sys = water_ion_box(1, 1.0, 6);
        let nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
        let mut moved = sys.pos.clone();
        moved[10].x = (moved[10].x + 0.1) % sys.box_len; // < skin/2
        assert!(!nl.needs_rebuild(&moved));
    }

    #[test]
    fn pair_count_scales_with_density_neighborhood() {
        let sys = water_ion_box(1, 1.0, 7);
        let nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.3);
        // At ρ = 0.85, reach 2.8: expect ~ ρ·(4/3)π·reach³/2 ≈ 39 pairs/atom.
        let per_atom = nl.npairs() as f64 / sys.len() as f64;
        assert!((30.0..50.0).contains(&per_atom), "{per_atom}");
    }

    #[test]
    fn pairs_are_half_list() {
        let sys = water_ion_box(1, 1.0, 8);
        let nl = NeighborList::build(&sys.pos[..200], sys.box_len, 2.5, 0.3);
        let r = nl.runs();
        for (k, &i) in r.sweep.iter().enumerate() {
            for &j in &r.partners[r.first[k] as usize..r.first[k + 1] as usize] {
                assert_ne!(i, j, "atom {i} is its own partner");
            }
        }
        let s = sorted(nl.pairs());
        assert_eq!(s.len(), nl.npairs(), "duplicate pairs found");
    }

    /// Candidates the sweep tests without trimming: per cell member, the
    /// rest of its cell and every atom of its higher neighbor cells.
    fn untrimmed_candidates(cells: &CellList) -> u64 {
        let mut candidates = 0u64;
        for cell in 0..cells.ncells() {
            let m = cells.cell(cell).len() as u64;
            let (nbhd, len) = CellList::neighborhood(cells.cells_per_side, cell);
            let higher: u64 = nbhd[..len]
                .iter()
                .filter(|&&nc| nc > cell)
                .map(|&nc| cells.cell(nc).len() as u64)
                .sum();
            candidates += m * m.saturating_sub(1) / 2 + m * higher;
        }
        candidates
    }

    /// The sweep's counters, exactly. Below 4 cells per side no run is
    /// trimmed, so the candidates are [`untrimmed_candidates`]. At dims 1
    /// and 2 (4 and 8 cells per side), after a build and after a rebuild,
    /// they are pinned: the trim must cut them below that count, and a
    /// candidate counted twice or a trim lost moves them. The pairs are
    /// the scalar scan's, every time.
    #[test]
    fn sweep_counts_candidates_and_pairs_exactly() {
        let sys = water_ion_box(1, 1.0, 3);
        for n in 1..=3usize {
            let reach = sys.box_len / n as f64 - 1e-9;
            let nl = NeighborList::build(&sys.pos[..500], sys.box_len, reach, 0.0);
            assert_eq!(nl.cells.cells_per_side, n);
            let pairs = reference_pairs(&nl, &sys.pos[..500]).len();
            let want = (untrimmed_candidates(&nl.cells), pairs);
            assert_eq!((nl.candidates(), nl.npairs()), want, "{n} cells per side");
        }
        let pinned = [
            (1usize, [(365_166u64, 63_171usize), (396_903, 63_171)]),
            (2, [(3_022_306, 519_960), (3_309_086, 519_960)]),
        ];
        for (dim, want) in pinned {
            let sys = water_ion_box(dim, 1.0, 3);
            let moved: Vec<Vec3> = sys
                .pos
                .iter()
                .map(|&p| (p + Vec3::new(0.3, -0.2, 0.1)).wrap(sys.box_len))
                .collect();
            let mut nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
            for (positions, (candidates, pairs)) in [&sys.pos, &moved].into_iter().zip(want) {
                nl.rebuild(positions);
                assert_eq!(nl.npairs(), reference_pairs(&nl, positions).len(), "dim {dim}");
                assert!(nl.candidates() < untrimmed_candidates(&nl.cells), "dim {dim}");
                assert_eq!((nl.candidates(), nl.npairs()), (candidates, pairs), "dim {dim}");
            }
        }
    }
}
