//! Linked-cell spatial binning for O(N) neighbor construction.

use crate::vec3::Vec3;
use std::ops::Range;

/// A slot range of the cell-sorted coordinate arrays may be read rounded
/// up to a multiple of this many entries: the arrays end in
/// `LANE_WIDTH - 1` entries of padding (whose values mean nothing).
pub(crate) const LANE_WIDTH: usize = 4;

/// A cubic cell grid over a periodic box. Cells are at least `min_cell`
/// wide so that all pairs within `min_cell` are found in the 27-cell
/// neighborhood.
///
/// Atoms are held cell-sorted in CSR form: `start[c]..start[c + 1]` is
/// cell `c`'s slot range in `order` (atom ids, ascending within a cell)
/// and in the structure-of-arrays coordinate copies `sx`/`sy`/`sz`, so a
/// cell — and a run of consecutive cells — is one contiguous range of
/// each. The grid owns all of it across rebuilds: [`CellList::rebin`] is
/// a counting sort into the existing arrays, so a steady-state simulation
/// re-bins every timestep without touching the allocator.
#[derive(Debug, Clone)]
pub(crate) struct CellList {
    /// Cells per box edge.
    pub cells_per_side: usize,
    /// Box side length.
    pub box_len: f64,
    /// Slot range of each cell: `ncells + 1` offsets into `order`.
    start: Vec<u32>,
    /// Atom ids, cell-major, ascending within a cell.
    order: Vec<u32>,
    /// Coordinates in `order`'s order, plus `LANE_WIDTH - 1` of padding.
    sx: Vec<f64>,
    sy: Vec<f64>,
    sz: Vec<f64>,
    /// Per-atom cell index scratch, persistent across rebuilds.
    atom_cells: Vec<u32>,
    /// Range of each cell in `higher`: `ncells + 1` offsets.
    higher_start: Vec<u32>,
    /// Per cell, the cells of its periodic neighborhood with a larger
    /// index, in [`CellList::neighborhood`] order, as runs of consecutive
    /// cell indices. Fixed by the geometry.
    higher: Vec<Range<u32>>,
}

impl CellList {
    /// Build the grid and bin all positions. `min_cell` is typically the
    /// cutoff plus skin.
    pub(crate) fn build(positions: &[Vec3], box_len: f64, min_cell: f64) -> Self {
        assert!(box_len > 0.0 && min_cell > 0.0);
        let cells_per_side = ((box_len / min_cell).floor() as usize).max(1);
        let ncells = cells_per_side.pow(3);
        let mut higher_start = Vec::with_capacity(ncells + 1);
        let mut higher: Vec<Range<u32>> = Vec::new();
        higher_start.push(0);
        for cell in 0..ncells {
            let (nbhd, len) = Self::neighborhood(cells_per_side, cell);
            let first_run = higher.len();
            for &nc in nbhd[..len].iter().filter(|&&nc| nc > cell) {
                match higher[first_run..].last_mut() {
                    Some(run) if run.end == nc as u32 => run.end += 1,
                    _ => higher.push(nc as u32..nc as u32 + 1),
                }
            }
            higher_start.push(higher.len() as u32);
        }
        let mut cl = CellList {
            cells_per_side,
            box_len,
            start: vec![0; ncells + 1],
            order: Vec::new(),
            sx: Vec::new(),
            sy: Vec::new(),
            sz: Vec::new(),
            atom_cells: Vec::new(),
            higher_start,
            higher,
        };
        cl.rebin(positions);
        cl
    }

    /// Re-bin `positions` into the existing grid, reusing all storage.
    /// The grid geometry (box length, cell count) is fixed at
    /// [`CellList::build`] time; positions must be wrapped into the box.
    ///
    /// A stable counting sort — count per cell, exclusive prefix, scatter
    /// in atom order — so every cell lists its members in ascending atom
    /// index: the property the neighbor list's pair ordering (and
    /// therefore the force kernel's reduction order) relies on.
    pub(crate) fn rebin(&mut self, positions: &[Vec3]) {
        let n = self.cells_per_side;
        let ncells = self.ncells();
        let inv = n as f64 / self.box_len;
        let natoms = positions.len();
        assert!(natoms <= u32::MAX as usize, "atom ids are u32");
        // The sweep's divide-free minimum image needs |pj - pi| <= box_len.
        debug_assert!(
            positions
                .iter()
                .all(|p| [p.x, p.y, p.z].iter().all(|c| (0.0..=self.box_len).contains(c))),
            "positions must be wrapped into the box"
        );
        self.atom_cells.clear();
        self.start.fill(0);
        for &p in positions {
            let idx = Self::cell_index_raw(p, inv, n);
            self.atom_cells.push(idx as u32);
            self.start[idx] += 1;
        }
        let mut next = 0u32;
        for slot in &mut self.start[..ncells] {
            next += std::mem::replace(slot, next);
        }
        self.order.resize(natoms, 0);
        for coords in [&mut self.sx, &mut self.sy, &mut self.sz] {
            coords.resize(natoms + LANE_WIDTH - 1, f64::NAN);
        }
        // Scatter; `start[c]` is cell `c`'s write cursor and ends up at
        // the cell's end, i.e. the next cell's start.
        for (i, (&p, &idx)) in positions.iter().zip(&self.atom_cells).enumerate() {
            let slot = self.start[idx as usize] as usize;
            self.start[idx as usize] += 1;
            self.order[slot] = i as u32;
            self.sx[slot] = p.x;
            self.sy[slot] = p.y;
            self.sz[slot] = p.z;
        }
        self.start.copy_within(..ncells, 1);
        self.start[0] = 0;
    }

    #[inline]
    fn cell_index_raw(p: Vec3, inv: f64, n: usize) -> usize {
        let clampi = |x: f64| -> usize {
            let c = (x * inv) as isize;
            c.clamp(0, n as isize - 1) as usize
        };
        let (cx, cy, cz) = (clampi(p.x), clampi(p.y), clampi(p.z));
        (cx * n + cy) * n + cz
    }

    /// Slot range of cell `idx` in the cell-sorted arrays.
    #[inline]
    pub(crate) fn span(&self, idx: usize) -> Range<usize> {
        self.start[idx] as usize..self.start[idx + 1] as usize
    }

    /// Number of cells.
    pub(crate) fn ncells(&self) -> usize {
        self.start.len() - 1
    }

    /// Atom ids in cell-sorted slot order.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Cell-sorted `x`, `y`, `z` coordinates: slot `s` holds atom
    /// `order()[s]`; see [`LANE_WIDTH`] for the padding behind the last.
    pub(crate) fn sorted_coords(&self) -> [&[f64]; 3] {
        [&self.sx, &self.sy, &self.sz]
    }

    /// Slot ranges of the cells in `idx`'s periodic neighborhood with a
    /// larger index, in [`CellList::neighborhood`] order. Consecutive
    /// cells are adjacent in slot order too, so each run of them comes as
    /// one range.
    #[inline]
    pub(crate) fn higher_neighbor_spans(
        &self,
        idx: usize,
    ) -> impl Iterator<Item = Range<usize>> + '_ {
        let runs = self.higher_start[idx] as usize..self.higher_start[idx + 1] as usize;
        self.higher[runs].iter().map(|run| {
            self.start[run.start as usize] as usize..self.start[run.end as usize] as usize
        })
    }

    /// The periodic neighborhood (including the cell itself) of cell
    /// `idx` in a grid of `n` cells per side, and how many distinct cells
    /// it holds. With fewer than 3 cells per side the neighborhood is
    /// deduplicated, hence the count can be below 27. The visiting order
    /// is part of the pair-stream contract.
    pub(crate) fn neighborhood(n: usize, idx: usize) -> ([usize; 27], usize) {
        let cz = idx % n;
        let cy = (idx / n) % n;
        let cx = idx / (n * n);
        let mut cells = [0usize; 27];
        let mut len = 0;
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let wrap = |c: usize, d: i64| -> usize {
                        (((c as i64 + d).rem_euclid(n as i64)) as usize).min(n - 1)
                    };
                    let j = (wrap(cx, dx) * n + wrap(cy, dy)) * n + wrap(cz, dz);
                    if !cells[..len].contains(&j) {
                        cells[len] = j;
                        len += 1;
                    }
                }
            }
        }
        (cells, len)
    }
}

#[cfg(test)]
impl CellList {
    /// Particles in a cell, in ascending atom index.
    pub(crate) fn cell(&self, idx: usize) -> &[u32] {
        &self.order[self.span(idx)]
    }

    /// Total binned particles (sanity checks).
    pub(crate) fn total(&self) -> usize {
        self.start[self.ncells()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CellList {
        /// Cell index for a position (must be wrapped into the box).
        fn cell_of(&self, p: Vec3) -> usize {
            Self::cell_index_raw(p, self.cells_per_side as f64 / self.box_len, self.cells_per_side)
        }
    }

    fn grid_positions(n_per_side: usize, box_len: f64) -> Vec<Vec3> {
        let mut v = Vec::new();
        let sp = box_len / n_per_side as f64;
        for i in 0..n_per_side {
            for j in 0..n_per_side {
                for k in 0..n_per_side {
                    v.push(Vec3::new(
                        (i as f64 + 0.5) * sp,
                        (j as f64 + 0.5) * sp,
                        (k as f64 + 0.5) * sp,
                    ));
                }
            }
        }
        v
    }

    fn neighborhood(cl: &CellList, idx: usize) -> Vec<usize> {
        let (cells, len) = CellList::neighborhood(cl.cells_per_side, idx);
        cells[..len].to_vec()
    }

    #[test]
    fn bins_every_particle_exactly_once() {
        let pos = grid_positions(6, 12.0);
        let cl = CellList::build(&pos, 12.0, 2.5);
        assert_eq!(cl.total(), pos.len());
    }

    #[test]
    fn cell_size_respects_minimum() {
        let pos = grid_positions(4, 10.0);
        let cl = CellList::build(&pos, 10.0, 3.0);
        // 10/3 -> 3 cells per side, each 3.33 >= 3.0.
        assert_eq!(cl.cells_per_side, 3);
    }

    #[test]
    fn rebin_matches_fresh_build() {
        let pos_a = grid_positions(6, 12.0);
        let mut pos_b = pos_a.clone();
        pos_b.rotate_left(7); // same atoms, different binning order
        let fresh = CellList::build(&pos_b, 12.0, 2.5);
        let mut reused = CellList::build(&pos_a, 12.0, 2.5);
        reused.rebin(&pos_b);
        assert_eq!(reused.total(), pos_b.len());
        for c in 0..fresh.ncells() {
            assert_eq!(reused.cell(c), fresh.cell(c), "cell {c} diverged after rebin");
        }
    }

    #[test]
    fn neighborhood_has_27_distinct_cells_when_large() {
        let pos = grid_positions(8, 16.0);
        let cl = CellList::build(&pos, 16.0, 2.0);
        assert_eq!(cl.cells_per_side, 8);
        let nb = neighborhood(&cl, cl.cell_of(Vec3::new(8.0, 8.0, 8.0)));
        assert_eq!(nb.len(), 27);
    }

    #[test]
    fn neighborhood_deduplicates_small_grids() {
        let pos = grid_positions(2, 4.0);
        let cl = CellList::build(&pos, 4.0, 2.0);
        assert_eq!(cl.cells_per_side, 2);
        let nb = neighborhood(&cl, 0);
        // All 8 cells, each exactly once.
        assert_eq!(nb.len(), 8);
    }

    #[test]
    fn single_cell_degenerate_box() {
        let pos = grid_positions(2, 2.0);
        let cl = CellList::build(&pos, 2.0, 5.0);
        assert_eq!(cl.ncells(), 1);
        assert_eq!(neighborhood(&cl, 0), vec![0]);
        assert_eq!(cl.cell(0).len(), 8);
    }

    #[test]
    fn nearby_particles_share_neighborhood() {
        let box_len = 12.0;
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(1.5, 1.2, 0.8);
        let cl = CellList::build(&[a, b], box_len, 2.0);
        let nb = neighborhood(&cl, cl.cell_of(a));
        assert!(nb.contains(&cl.cell_of(b)));
    }

    #[test]
    fn periodic_wraparound_neighbors() {
        let box_len = 12.0;
        // Particles on opposite faces are periodic neighbors.
        let a = Vec3::new(0.1, 6.0, 6.0);
        let b = Vec3::new(11.9, 6.0, 6.0);
        let cl = CellList::build(&[a, b], box_len, 2.0);
        let nb = neighborhood(&cl, cl.cell_of(a));
        assert!(nb.contains(&cl.cell_of(b)), "wraparound neighborhood missing");
    }
}
