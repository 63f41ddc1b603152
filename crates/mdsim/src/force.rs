//! Pairwise forces: Lennard-Jones plus damped-shifted-force Coulomb.
//!
//! Electrostatics use the DSF form (Fennell & Gezelter 2006 with α = 0),
//! which is smooth at the cutoff without requiring Ewald sums or `erfc` —
//! adequate for a dilute ionic solution and standard practice in
//! coarse-grained work. The LJ potential is cut and shifted so energy is
//! continuous at the cutoff.
//!
//! The kernel is the dominant computational phase of every timestep,
//! exactly as in LAMMPS. It is built for raw speed without giving up
//! bitwise determinism:
//!
//! * **Batches** — a chunk's pairs go through batches of [`BATCH`] in
//!   three loops: a gather of the raw separations and the species
//!   coefficients into structure-of-arrays columns, with each run's
//!   sweep atom held in registers; one branch-free arithmetic loop over
//!   all [`BATCH`] lanes; and an accumulate-and-scatter loop in pair
//!   order. Only the middle loop is vectorized: under the x86-64-v3 floor
//!   of `.cargo/config.toml` its divide and square root compile to packed
//!   4-wide `vdivpd`/`vsqrtpd` (IEEE `/` and `sqrt` are correctly rounded
//!   at any width, so the bits do not depend on it); on the SSE2 baseline
//!   the libm `round` call keeps it scalar. Inactive lanes (excluded
//!   pairs, out-of-cutoff pairs, tail padding) compute on a guarded
//!   `r² = 1` and are then *selected* to exact `0.0` — never multiplied
//!   by a mask, so no `inf · 0` NaNs can leak.
//! * **Coefficient table** — per-species-pair σ², 4ε, 24ε, the LJ shift
//!   and the Coulomb prefactor live in a flat [`CoeffTable`] built once,
//!   so the inner loop does one divide and one square root per pair and
//!   zero table arithmetic.
//! * **Chunk-merged accumulation** — the pair list is cut into fixed
//!   chunks of [`PAIR_CHUNK`] pairs, evaluated one after another on the
//!   calling thread into the one reused partial slot of [`ForceScratch`];
//!   each chunk's partial forces are added into `sys.force`, and its
//!   energy, virial and pair count into the totals, before the next chunk
//!   starts. Chunk boundaries depend only on the pair count, and each
//!   pair's energy lane depends only on its position within the chunk, so
//!   the full floating-point op sequence is a pure function of the input.
//!
//! The kernel never enters the `par` pool, so `POLIMER_THREADS` cannot
//! reach it: the pool fans out over whole runs only. All buffers live in
//! a caller-owned [`ForceScratch`], and steady-state force evaluation
//! performs no heap allocation at any width (asserted by the `alloc_free`
//! test with a counting global allocator, at widths 1 and 2).

use crate::neighbor::{NeighborList, Runs};
use crate::species::{PairTable, NSPECIES};
use crate::system::System;
use crate::vec3::Vec3;

/// Coulomb prefactor in reduced units. Scaled to a Bjerrum length of a few
/// σ (as in water at room temperature, l_B ≈ 7 Å ≈ 2.3 σ) so that ionic
/// interactions are meaningfully stronger than dispersion at mid range.
pub(crate) const COULOMB_K: f64 = 4.0;

/// Force-field parameters.
#[derive(Debug, Clone, Copy)]
pub struct ForceParams {
    /// Interaction cutoff radius.
    pub cutoff: f64,
}

impl Default for ForceParams {
    fn default() -> Self {
        ForceParams { cutoff: 2.5 }
    }
}

/// Result of one force evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceEval {
    /// Total potential energy.
    pub potential: f64,
    /// Pair virial `Σ f·r` (for pressure).
    pub virial: f64,
    /// Pairs actually evaluated (within the cutoff) — the work measure.
    pub pairs_evaluated: u64,
}

/// Energy and virial accumulator lanes: pair `p` of a chunk adds to lane
/// `p % LANES`, and the lanes fold in ascending order at the chunk's end.
/// Part of the op sequence, so it fixes the bits of both sums.
const LANES: usize = 8;

/// Pairs per batch: the unit of [`eval_chunk`]'s gather, arithmetic and
/// scatter loops. A multiple of [`LANES`], so pair `t` of a batch starting
/// at a multiple of it in the chunk adds to lane `t % LANES`.
const BATCH: usize = 64;
const _: () = assert!(BATCH.is_multiple_of(LANES));

/// Pairs per chunk. The chunk fixes the op sequence, nothing else: its
/// pairs accumulate into a zeroed partial, and the partials add into the
/// total in ascending chunk order, so changing it moves the last bits of
/// every force and of both sums. The one partial slot is reused, so the
/// chunk count costs no memory; the per-chunk clear and merge of that
/// atom-length slot is amortized over many pairs (under 10 bytes of
/// buffer traffic per pair at the 12k-atom benchmark).
const PAIR_CHUNK: usize = 32_768;

/// Per-species-pair coefficients with everything liftable lifted out of
/// the inner loop: σ², 4ε and 24ε pre-multiplied, the LJ cutoff shift
/// pre-evaluated, and the Coulomb prefactor `K·qᵢqⱼ` folded in.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairCoeff {
    pub(crate) sigma_sq: f64,
    pub(crate) eps4: f64,
    pub(crate) eps24: f64,
    pub(crate) u_shift: f64,
    pub(crate) kqq: f64,
}

/// Flat per-species-pair coefficient table plus cutoff constants. Build
/// once per force field (cheap), reuse for every evaluation.
#[derive(Debug, Clone)]
pub struct CoeffTable {
    cutoff: f64,
    cutoff_sq: f64,
    inv_rc: f64,
    inv_rc_sq: f64,
    coeff: [PairCoeff; NSPECIES * NSPECIES],
}

impl CoeffTable {
    /// Precompute coefficients for every species pair at `cutoff`.
    pub fn new(table: &PairTable, cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        use crate::species::Species;
        let mut coeff = [PairCoeff::default(); NSPECIES * NSPECIES];
        for a in Species::ALL {
            for b in Species::ALL {
                let sigma = table.sigma(a, b);
                let eps = table.epsilon(a, b);
                let src2 = sigma * sigma / (cutoff * cutoff);
                let src6 = src2 * src2 * src2;
                coeff[a.index() * NSPECIES + b.index()] = PairCoeff {
                    sigma_sq: sigma * sigma,
                    eps4: 4.0 * eps,
                    eps24: 24.0 * eps,
                    u_shift: 4.0 * eps * (src6 * src6 - src6),
                    kqq: COULOMB_K * table.charge_product(a, b),
                };
            }
        }
        CoeffTable {
            cutoff,
            cutoff_sq: cutoff * cutoff,
            inv_rc: 1.0 / cutoff,
            inv_rc_sq: 1.0 / (cutoff * cutoff),
            coeff,
        }
    }

    #[inline]
    pub(crate) fn at(&self, si: u8, sj: u8) -> &PairCoeff {
        &self.coeff[si as usize * NSPECIES + sj as usize]
    }
}

/// One chunk's partial results: a full-length force buffer plus scalar
/// accumulators, added into the totals before the next chunk reuses it.
#[derive(Debug, Clone, Default)]
struct ChunkSlot {
    forces: Vec<Vec3>,
    u: f64,
    vir: f64,
    evaluated: u64,
}

/// Reusable scratch owned by the caller (typically [`crate::MdEngine`]):
/// the one chunk partial and the species-index cache. Once the buffers
/// reach steady-state size, [`compute_forces_into`] allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ForceScratch {
    /// Species index per atom as `u8` (dense gather in the inner loop).
    sp_idx: Vec<u8>,
    /// The partial-result slot every chunk reuses in turn.
    slot: ChunkSlot,
}

impl ForceScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Shared read-only context for chunk evaluation.
struct LaneCtx<'a> {
    pos: &'a [Vec3],
    sp: &'a [u8],
    coeffs: &'a CoeffTable,
    exclusions: Option<&'a [(u32, u32)]>,
    box_len: f64,
    inv_box: f64,
}

/// One batch of pairs as structure-of-arrays columns: the gathered raw
/// separations and species coefficients, then the evaluated terms, and
/// the pieces of runs the batch holds. Lanes past the batch's pairs hold
/// a zero separation, so `r² = 0` makes them inactive and their terms
/// exact zeros.
struct Batch {
    dx: [f64; BATCH],
    dy: [f64; BATCH],
    dz: [f64; BATCH],
    excluded: [bool; BATCH],
    sig2: [f64; BATCH],
    e4: [f64; BATCH],
    e24: [f64; BATCH],
    ush: [f64; BATCH],
    kqq: [f64; BATCH],
    r2: [f64; BATCH],
    u: [f64; BATCH],
    fr: [f64; BATCH],
    active: [bool; BATCH],
    /// Per piece of a run, in order: the lane it ends before and its
    /// sweep atom.
    pieces: [(usize, usize); BATCH],
    npieces: usize,
}

impl Batch {
    fn new() -> Self {
        let z = [0.0; BATCH];
        Batch {
            dx: z,
            dy: z,
            dz: z,
            excluded: [false; BATCH],
            sig2: z,
            e4: z,
            e24: z,
            ush: z,
            kqq: z,
            r2: z,
            u: z,
            fr: z,
            active: [false; BATCH],
            pieces: [(0, 0); BATCH],
            npieces: 0,
        }
    }

    /// Gather the pairs `lo..hi` of the list (at most [`BATCH`]) into the
    /// input columns, run piece by run piece from run `*k` on (left at
    /// the run holding the last pair): raw `pos[i] − pos[j]` with the
    /// sweep atom `i` held across its piece, the species pair's
    /// coefficients and, only when the call has exclusions, the exclusion
    /// mask.
    #[inline]
    fn gather(&mut self, ctx: &LaneCtx, runs: &Runs, k: &mut usize, lo: usize, hi: usize) {
        let Runs { sweep, first, partners } = *runs;
        self.npieces = 0;
        let mut p = lo;
        while p < hi {
            while first[*k + 1] as usize <= p {
                *k += 1;
            }
            let end = (first[*k + 1] as usize).min(hi);
            let i = sweep[*k] as usize;
            let (pi, row) = (ctx.pos[i], ctx.sp[i]);
            let lanes = p - lo..end - lo;
            for (t, &j) in lanes.clone().zip(&partners[p..end]) {
                let j = j as usize;
                let d = pi - ctx.pos[j];
                self.dx[t] = d.x;
                self.dy[t] = d.y;
                self.dz[t] = d.z;
                let pc = ctx.coeffs.at(row, ctx.sp[j]);
                self.sig2[t] = pc.sigma_sq;
                self.e4[t] = pc.eps4;
                self.e24[t] = pc.eps24;
                self.ush[t] = pc.u_shift;
                self.kqq[t] = pc.kqq;
            }
            if let Some(ex) = ctx.exclusions {
                let i = i as u32;
                for (t, &j) in lanes.clone().zip(&partners[p..end]) {
                    self.excluded[t] = ex.binary_search(&(i.min(j), i.max(j))).is_ok();
                }
            }
            self.pieces[self.npieces] = (lanes.end, i);
            self.npieces += 1;
            p = end;
        }
        for t in hi - lo..BATCH {
            self.dx[t] = 0.0;
            self.dy[t] = 0.0;
            self.dz[t] = 0.0;
        }
    }

    /// The pair terms of every lane, branch-free: inactive lanes
    /// (excluded, out of cutoff, coincident, or past the batch's pairs)
    /// run the arithmetic on a guarded `r² = 1` and are selected to exact
    /// zero — never multiplied by a mask, so no `inf · 0` NaN can leak.
    /// Fixed-length and select-only, so the divide and the square root
    /// compile to packed instructions.
    #[inline]
    fn eval(&mut self, ctx: &LaneCtx) {
        let c = ctx.coeffs;
        let (bl, ib) = (ctx.box_len, ctx.inv_box);
        let (irc, irc2, rc, rc2) = (c.inv_rc, c.inv_rc_sq, c.cutoff, c.cutoff_sq);
        for t in 0..BATCH {
            let dx = self.dx[t] - bl * (self.dx[t] * ib).round();
            let dy = self.dy[t] - bl * (self.dy[t] * ib).round();
            let dz = self.dz[t] - bl * (self.dz[t] * ib).round();
            let r2 = dx * dx + dy * dy + dz * dz;
            let active = !self.excluded[t] & (r2 <= rc2) & (r2 > 0.0);
            let r2g = if active { r2 } else { 1.0 };
            // One divide + one sqrt per pair; 1/r comes from r·(1/r²).
            let inv_r2 = 1.0 / r2g;
            let r = r2g.sqrt();
            let inv_r = r * inv_r2;
            let sr2 = self.sig2[t] * inv_r2;
            let sr6 = sr2 * sr2 * sr2;
            let sr12 = sr6 * sr6;
            let u_lj = self.e4[t] * (sr12 - sr6) - self.ush[t];
            let f_lj = self.e24[t] * (2.0 * sr12 - sr6) * inv_r2;
            let u_c = self.kqq[t] * (inv_r - irc + (r - rc) * irc2);
            let f_c = self.kqq[t] * (inv_r2 - irc2) * inv_r;
            self.dx[t] = dx;
            self.dy[t] = dy;
            self.dz[t] = dz;
            self.r2[t] = r2;
            self.u[t] = if active { u_lj + u_c } else { 0.0 };
            self.fr[t] = if active { f_lj + f_c } else { 0.0 };
            self.active[t] = active;
        }
    }
}

/// Evaluate the pairs `lo..hi` of the list into `slot` (zeroed first),
/// batch by batch: gather, evaluate, then accumulate and scatter in pair
/// order. Pair `p` of the chunk adds its energy and virial to lane
/// `p % LANES`, and each atom's force sees its pairs' additions in pair
/// order, so the slot is a pure function of the chunk.
///
/// A pair is evaluated as (sweep atom `i`, partner `j`), whichever of the
/// two ids is smaller; exclusions are keyed `(min, max)`. Which atom comes
/// first only flips signs: `a − b = −(b − a)` and the rounding minimum
/// image is odd, so `d` and `f` change sign while `r²`, `u` and `fr` keep
/// their bits, and `x − f` is `x + (−f)`. So every accumulator sees the
/// same additions in either orientation, which the lane-group oracle (on
/// `(min, max)` pairs) checks bit for bit.
fn eval_chunk(ctx: &LaneCtx, runs: &Runs, lo: usize, hi: usize, n: usize, slot: &mut ChunkSlot) {
    slot.forces.clear();
    slot.forces.resize(n, Vec3::ZERO);
    let forces = slot.forces.as_mut_slice();
    let mut u_acc = [0.0f64; LANES];
    let mut vir_acc = [0.0f64; LANES];
    let mut evaluated = 0u64;
    let mut b = Batch::new();
    // The run holding pair `lo`: the last whose offset is at most `lo`.
    let mut k = runs.first.partition_point(|&f| f as usize <= lo) - 1;
    for lo in (lo..hi).step_by(BATCH) {
        let hi = (lo + BATCH).min(hi);
        b.gather(ctx, runs, &mut k, lo, hi);
        b.eval(ctx);
        // Lanes past the batch's pairs add `+0.0`, which leaves an
        // accumulator unchanged (it starts at `+0.0`, and round-to-nearest
        // never makes `-0.0` of a sum), so whole lane groups are summed.
        for l in 0..BATCH {
            u_acc[l % LANES] += b.u[l];
            vir_acc[l % LANES] += b.fr[l] * b.r2[l];
            evaluated += b.active[l] as u64;
        }
        // Branchless scatter, the sweep atom's force held across its
        // piece: inactive pairs carry `fr == 0`, so their force components
        // are `±0.0`, which by the same argument changes no accumulator.
        // The active split is ~2:1 in a typical skin shell, which makes a
        // per-pair branch mispredict constantly.
        let mut start = 0;
        for &(end, i) in &b.pieces[..b.npieces] {
            let mut fi = forces[i];
            for (t, &j) in (start..end).zip(&runs.partners[lo + start..lo + end]) {
                let f = Vec3::new(b.dx[t] * b.fr[t], b.dy[t] * b.fr[t], b.dz[t] * b.fr[t]);
                fi += f;
                forces[j as usize] -= f;
            }
            forces[i] = fi;
            start = end;
        }
    }
    // Fixed fold order over the lane accumulators: ascending lane index.
    slot.u = u_acc.iter().copied().fold(0.0, |a, b| a + b);
    slot.vir = vir_acc.iter().copied().fold(0.0, |a, b| a + b);
    slot.evaluated = evaluated;
}

/// The force kernel: evaluate forces into `sys.force` using caller-owned
/// scratch and a prebuilt coefficient table, returning energy, virial and
/// work counts. `exclusions`, if given, is a sorted slice of `(min, max)`
/// index pairs the kernel skips.
///
/// Runs on the calling thread: chunks of 32 768 pairs are evaluated in
/// turn into the scratch's one slot and added in ascending chunk order,
/// one fixed op sequence, so `POLIMER_THREADS` cannot move a bit. With
/// warm scratch it allocates nothing.
pub fn compute_forces_into(
    scratch: &mut ForceScratch,
    sys: &mut System,
    nl: &NeighborList,
    coeffs: &CoeffTable,
    exclusions: Option<&[(u32, u32)]>,
) -> ForceEval {
    forces_chunked(scratch, sys, nl, coeffs, exclusions, PAIR_CHUNK)
}

/// [`compute_forces_into`] at an explicit chunk size. The chunk size
/// *defines* the canonical op sequence: results are bit-stable for a
/// fixed chunk size, not across chunk sizes.
fn forces_chunked(
    scratch: &mut ForceScratch,
    sys: &mut System,
    nl: &NeighborList,
    coeffs: &CoeffTable,
    exclusions: Option<&[(u32, u32)]>,
    chunk: usize,
) -> ForceEval {
    debug_assert!(
        exclusions.is_none_or(|ex| ex.windows(2).all(|w| w[0] < w[1])),
        "exclusions must be sorted for binary search"
    );
    let runs = nl.runs();
    let npairs = nl.npairs();
    let n = sys.len();

    let System { box_len, species, pos, force, .. } = sys;
    let ForceScratch { sp_idx, slot } = scratch;
    sp_idx.clear();
    sp_idx.extend(species.iter().map(|s| s.index() as u8));
    let ctx =
        LaneCtx { pos, sp: sp_idx, coeffs, exclusions, box_len: *box_len, inv_box: 1.0 / *box_len };
    // Chunk after chunk through the one slot, each added in as it is done:
    // every atom's force is `0 + p₀ + p₁ + …` in ascending chunk order, and
    // the scalars fold the same way.
    force.clear();
    force.resize(n, Vec3::ZERO);
    let (mut potential, mut virial, mut evaluated) = (0.0, 0.0, 0u64);
    for lo in (0..npairs).step_by(chunk) {
        eval_chunk(&ctx, &runs, lo, (lo + chunk).min(npairs), n, slot);
        for (f, p) in force.iter_mut().zip(&slot.forces) {
            *f += *p;
        }
        potential += slot.u;
        virial += slot.vir;
        evaluated += slot.evaluated;
    }
    ForceEval { potential, virial, pairs_evaluated: evaluated }
}

#[cfg(test)]
/// Evaluate forces into `sys.force` with a [`CoeffTable`] and a throwaway
/// [`ForceScratch`] built per call; the engine holds both and calls
/// [`compute_forces_into`].
pub(crate) fn compute_forces(
    sys: &mut System,
    nl: &NeighborList,
    params: ForceParams,
    table: &PairTable,
) -> ForceEval {
    let coeffs = CoeffTable::new(table, params.cutoff);
    compute_forces_into(&mut ForceScratch::new(), sys, nl, &coeffs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborList;
    use crate::system::water_ion_box;

    /// One lane group's worth of evaluated pair terms.
    struct LaneGroup {
        ii: [usize; LANES],
        jj: [usize; LANES],
        active: [bool; LANES],
        dx: [f64; LANES],
        dy: [f64; LANES],
        dz: [f64; LANES],
        r2: [f64; LANES],
        u: [f64; LANES],
        fr: [f64; LANES],
    }

    /// The lane-group kernel the batch kernel replaced, kept as its
    /// oracle: up to [`LANES`] pairs as fixed-width lane arrays, inactive
    /// lanes on a guarded `r² = 1` selected to exact zero.
    fn eval_lane_group(ctx: &LaneCtx, window: &[(u32, u32)]) -> LaneGroup {
        let mut ii = [0usize; LANES];
        let mut jj = [0usize; LANES];
        // Padding lanes keep i == j == 0: their r² is exactly 0, which the
        // active mask rejects, so they contribute exact zeros.
        let mut masked = [false; LANES];
        for (l, &(i, j)) in window.iter().enumerate() {
            ii[l] = i as usize;
            jj[l] = j as usize;
            masked[l] = ctx.exclusions.is_some_and(|ex| ex.binary_search(&(i, j)).is_ok());
        }
        let mut dx = [0.0; LANES];
        let mut dy = [0.0; LANES];
        let mut dz = [0.0; LANES];
        let mut r2 = [0.0; LANES];
        let (bl, ib) = (ctx.box_len, ctx.inv_box);
        for l in 0..LANES {
            let d = ctx.pos[ii[l]] - ctx.pos[jj[l]];
            dx[l] = d.x - bl * (d.x * ib).round();
            dy[l] = d.y - bl * (d.y * ib).round();
            dz[l] = d.z - bl * (d.z * ib).round();
            r2[l] = dx[l] * dx[l] + dy[l] * dy[l] + dz[l] * dz[l];
        }
        let c = ctx.coeffs;
        let mut active = [false; LANES];
        let mut r2g = [1.0; LANES];
        for l in 0..LANES {
            active[l] = !masked[l] && r2[l] <= c.cutoff_sq && r2[l] > 0.0;
            if active[l] {
                r2g[l] = r2[l];
            }
        }
        let (irc, irc2, rc) = (c.inv_rc, c.inv_rc_sq, c.cutoff);
        let mut u = [0.0; LANES];
        let mut fr = [0.0; LANES];
        for l in 0..LANES {
            let pc = c.at(ctx.sp[ii[l]], ctx.sp[jj[l]]);
            let inv_r2 = 1.0 / r2g[l];
            let r = r2g[l].sqrt();
            let inv_r = r * inv_r2;
            let sr2 = pc.sigma_sq * inv_r2;
            let sr6 = sr2 * sr2 * sr2;
            let sr12 = sr6 * sr6;
            let u_lj = pc.eps4 * (sr12 - sr6) - pc.u_shift;
            let f_lj = pc.eps24 * (2.0 * sr12 - sr6) * inv_r2;
            let u_c = pc.kqq * (inv_r - irc + (r - rc) * irc2);
            let f_c = pc.kqq * (inv_r2 - irc2) * inv_r;
            u[l] = if active[l] { u_lj + u_c } else { 0.0 };
            fr[l] = if active[l] { f_lj + f_c } else { 0.0 };
        }
        LaneGroup { ii, jj, active, dx, dy, dz, r2, u, fr }
    }

    /// The oracle's whole evaluation, serially: each chunk of `chunk`
    /// pairs through lane groups into its own partial forces, the
    /// partials merged in ascending chunk order. Returns the forces, the
    /// potential, the virial and the evaluated pair count.
    fn oracle_forces(
        sys: &System,
        pairs: &[(u32, u32)],
        coeffs: &CoeffTable,
        exclusions: Option<&[(u32, u32)]>,
        chunk: usize,
    ) -> (Vec<Vec3>, f64, f64, u64) {
        let sp: Vec<u8> = sys.species.iter().map(|s| s.index() as u8).collect();
        let ctx = LaneCtx {
            pos: &sys.pos,
            sp: &sp,
            coeffs,
            exclusions,
            box_len: sys.box_len,
            inv_box: 1.0 / sys.box_len,
        };
        let mut total = vec![Vec3::ZERO; sys.len()];
        let (mut potential, mut virial, mut evaluated) = (0.0, 0.0, 0u64);
        for pairs in pairs.chunks(chunk) {
            let mut forces = vec![Vec3::ZERO; sys.len()];
            let mut u_acc = [0.0f64; LANES];
            let mut vir_acc = [0.0f64; LANES];
            for window in pairs.chunks(LANES) {
                let g = eval_lane_group(&ctx, window);
                for l in 0..LANES {
                    u_acc[l] += g.u[l];
                    vir_acc[l] += g.fr[l] * g.r2[l];
                    evaluated += g.active[l] as u64;
                }
                for l in 0..LANES {
                    let f = Vec3::new(g.dx[l] * g.fr[l], g.dy[l] * g.fr[l], g.dz[l] * g.fr[l]);
                    forces[g.ii[l]] += f;
                    forces[g.jj[l]] -= f;
                }
            }
            for (t, f) in total.iter_mut().zip(&forces) {
                *t += *f;
            }
            potential += u_acc.iter().copied().fold(0.0, |a, b| a + b);
            virial += vir_acc.iter().copied().fold(0.0, |a, b| a + b);
        }
        (total, potential, virial, evaluated)
    }

    /// Potential energy only (no force mutation), the gradient tests'
    /// oracle: the lane-group oracle at the kernel's own chunk size.
    fn compute_potential(
        sys: &System,
        nl: &NeighborList,
        params: ForceParams,
        table: &PairTable,
    ) -> f64 {
        let coeffs = CoeffTable::new(table, params.cutoff);
        oracle_forces(sys, &nl.pairs(), &coeffs, None, PAIR_CHUNK).1
    }

    fn setup() -> (System, NeighborList, ForceParams, PairTable) {
        let sys = water_ion_box(1, 1.0, 13);
        let params = ForceParams::default();
        let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.3);
        (sys, nl, params, PairTable::new())
    }

    #[test]
    fn newtons_third_law_total_force_is_zero() {
        let (mut sys, nl, params, table) = setup();
        compute_forces(&mut sys, &nl, params, &table);
        let total = sys.force.iter().fold(Vec3::ZERO, |a, &f| a + f);
        assert!(total.norm() < 1e-9 * sys.len() as f64, "{total:?}");
    }

    #[test]
    fn potential_is_finite_and_reasonable() {
        let (mut sys, nl, params, table) = setup();
        let ev = compute_forces(&mut sys, &nl, params, &table);
        assert!(ev.potential.is_finite());
        assert!(ev.pairs_evaluated > 0);
        // LJ liquid near ρ=0.85: potential per particle around −7…+5.
        let per = ev.potential / sys.len() as f64;
        assert!((-10.0..10.0).contains(&per), "{per}");
    }

    #[test]
    fn force_is_negative_gradient_of_potential() {
        let (mut sys, nl, params, table) = setup();
        compute_forces(&mut sys, &nl, params, &table);
        let h = 1e-6;
        for &idx in &[0usize, 17, 100] {
            for axis in 0..3 {
                let mut plus = sys.clone();
                let mut minus = sys.clone();
                match axis {
                    0 => {
                        plus.pos[idx].x += h;
                        minus.pos[idx].x -= h;
                    }
                    1 => {
                        plus.pos[idx].y += h;
                        minus.pos[idx].y -= h;
                    }
                    _ => {
                        plus.pos[idx].z += h;
                        minus.pos[idx].z -= h;
                    }
                }
                let up = compute_potential(&plus, &nl, params, &table);
                let um = compute_potential(&minus, &nl, params, &table);
                let grad = (up - um) / (2.0 * h);
                let f = match axis {
                    0 => sys.force[idx].x,
                    1 => sys.force[idx].y,
                    _ => sys.force[idx].z,
                };
                assert!(
                    (f + grad).abs() < 1e-3 * f.abs().max(1.0),
                    "idx {idx} axis {axis}: f={f} -grad={}",
                    -grad
                );
            }
        }
    }

    #[test]
    fn potential_continuous_at_cutoff() {
        // Two particles straddling the cutoff have near-zero energy.
        use crate::species::Species;
        let params = ForceParams::default();
        let table = PairTable::new();
        let mut sys = System {
            box_len: 20.0,
            species: vec![Species::Water, Species::Water],
            pos: vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.0 + params.cutoff - 1e-5, 1.0, 1.0)],
            vel: vec![Vec3::ZERO; 2],
            force: vec![Vec3::ZERO; 2],
            unwrapped: vec![Vec3::ZERO; 2],
        };
        let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.5);
        let ev = compute_forces(&mut sys, &nl, params, &table);
        assert!(ev.potential.abs() < 1e-3, "{}", ev.potential);
    }

    #[test]
    fn opposite_charges_attract_at_medium_range() {
        use crate::species::Species;
        let params = ForceParams::default();
        let table = PairTable::new();
        // Distance past the LJ minimum so dispersion is weak; DSF Coulomb
        // should dominate and pull them together.
        let r = 2.0;
        let mut sys = System {
            box_len: 30.0,
            species: vec![Species::Hydronium, Species::Ion],
            pos: vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(5.0 + r, 5.0, 5.0)],
            vel: vec![Vec3::ZERO; 2],
            force: vec![Vec3::ZERO; 2],
            unwrapped: vec![Vec3::ZERO; 2],
        };
        let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.5);
        compute_forces(&mut sys, &nl, params, &table);
        // Particle 0 pulled toward +x (toward particle 1).
        assert!(sys.force[0].x > 0.0, "{:?}", sys.force[0]);
        assert!(sys.force[1].x < 0.0, "{:?}", sys.force[1]);
    }

    #[test]
    fn like_charges_repel_beyond_lj_minimum() {
        use crate::species::Species;
        let params = ForceParams::default();
        let table = PairTable::new();
        let r = 2.0;
        let mut sys = System {
            box_len: 30.0,
            species: vec![Species::Hydronium, Species::Hydronium],
            pos: vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(5.0 + r, 5.0, 5.0)],
            vel: vec![Vec3::ZERO; 2],
            force: vec![Vec3::ZERO; 2],
            unwrapped: vec![Vec3::ZERO; 2],
        };
        let nl = NeighborList::build(&sys.pos, sys.box_len, params.cutoff, 0.5);
        compute_forces(&mut sys, &nl, params, &table);
        assert!(sys.force[0].x < 0.0, "{:?}", sys.force[0]);
    }

    #[test]
    fn work_count_matches_in_range_pairs() {
        let (mut sys, nl, params, table) = setup();
        let ev = compute_forces(&mut sys, &nl, params, &table);
        // All evaluated pairs are within the neighbor reach; evaluated ≤ stored.
        assert!(ev.pairs_evaluated as usize <= nl.npairs());
        // With skin 0.3 most stored pairs are in range.
        assert!(ev.pairs_evaluated as usize > nl.npairs() / 2);
    }

    /// Straightforward scalar reference: same formulas, strict pair order,
    /// no lanes, no chunks. Lane batching must agree to summation-order
    /// tolerance and exactly on the evaluated-pair count.
    fn scalar_reference(
        sys: &System,
        nl: &NeighborList,
        coeffs: &CoeffTable,
        exclusions: Option<&[(u32, u32)]>,
    ) -> (Vec<Vec3>, f64, u64) {
        let inv_box = 1.0 / sys.box_len;
        let mut forces = vec![Vec3::ZERO; sys.len()];
        let mut u_total = 0.0;
        let mut evaluated = 0u64;
        for &(i, j) in &nl.pairs() {
            if exclusions.is_some_and(|ex| ex.binary_search(&(i, j)).is_ok()) {
                continue;
            }
            let (iu, ju) = (i as usize, j as usize);
            let d = sys.pos[iu] - sys.pos[ju];
            let dx = d.x - sys.box_len * (d.x * inv_box).round();
            let dy = d.y - sys.box_len * (d.y * inv_box).round();
            let dz = d.z - sys.box_len * (d.z * inv_box).round();
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 > coeffs.cutoff_sq || r2 == 0.0 {
                continue;
            }
            let pc = coeffs.at(sys.species[iu].index() as u8, sys.species[ju].index() as u8);
            let inv_r2 = 1.0 / r2;
            let r = r2.sqrt();
            let inv_r = r * inv_r2;
            let sr2 = pc.sigma_sq * inv_r2;
            let sr6 = sr2 * sr2 * sr2;
            let sr12 = sr6 * sr6;
            let u = pc.eps4 * (sr12 - sr6) - pc.u_shift
                + pc.kqq * (inv_r - coeffs.inv_rc + (r - coeffs.cutoff) * coeffs.inv_rc_sq);
            let fr = pc.eps24 * (2.0 * sr12 - sr6) * inv_r2
                + pc.kqq * (inv_r2 - coeffs.inv_rc_sq) * inv_r;
            forces[iu] += Vec3::new(dx * fr, dy * fr, dz * fr);
            forces[ju] -= Vec3::new(dx * fr, dy * fr, dz * fr);
            u_total += u;
            evaluated += 1;
        }
        (forces, u_total, evaluated)
    }

    #[test]
    fn exclusions_survive_lane_batching() {
        // Exclusion pairs land at arbitrary offsets inside lane groups and
        // straddle chunk boundaries for tiny chunk sizes; every chunking
        // must agree with the scalar reference.
        let (sys, nl, params, table) = setup();
        let coeffs = CoeffTable::new(&table, params.cutoff);
        let mut ex: Vec<(u32, u32)> = nl.pairs().iter().step_by(7).copied().collect();
        ex.sort_unstable();
        let (f_ref, u_ref, count_ref) = scalar_reference(&sys, &nl, &coeffs, Some(&ex));
        assert!(count_ref > 0);
        for chunk in [3usize, 5, 64, 16_384] {
            let mut s = sys.clone();
            let ev =
                forces_chunked(&mut ForceScratch::new(), &mut s, &nl, &coeffs, Some(&ex), chunk);
            assert_eq!(ev.pairs_evaluated, count_ref, "chunk {chunk}: evaluated count");
            let rel = (ev.potential - u_ref).abs() / u_ref.abs().max(1.0);
            assert!(rel < 1e-9, "chunk {chunk}: potential {} vs {u_ref}", ev.potential);
            for (k, (a, b)) in s.force.iter().zip(&f_ref).enumerate() {
                let scale = b.norm().max(1.0);
                assert!((*a - *b).norm() < 1e-9 * scale, "chunk {chunk} atom {k}: {a:?} vs {b:?}");
            }
        }
    }

    /// Force evaluation over the pairs among the first `atoms` atoms of the
    /// one-cell system, with an explicit chunk size, as raw bits. The chunk
    /// size *defines* the canonical reduction order, so different chunk
    /// sizes legitimately differ in the last ulp — but for any fixed chunk
    /// size, every thread count must reproduce the same bits.
    fn force_bits(atoms: usize, chunk_pairs: usize) -> (u64, u64, u64, Vec<u64>) {
        let mut sys = water_ion_box(1, 1.0, 55);
        let params = ForceParams::default();
        let coeffs = CoeffTable::new(&PairTable::new(), params.cutoff);
        let nl = NeighborList::build(&sys.pos[..atoms], sys.box_len, params.cutoff, 0.4);
        let ev =
            forces_chunked(&mut ForceScratch::new(), &mut sys, &nl, &coeffs, None, chunk_pairs);
        let fbits =
            sys.force.iter().flat_map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()]).collect();
        (ev.potential.to_bits(), ev.virial.to_bits(), ev.pairs_evaluated, fbits)
    }

    /// Asserts that `force_bits(atoms, chunk_pairs)` is the same at widths
    /// 2, 4 and 7 as on one thread, and when called from inside a busy
    /// region: the kernel reads no pool state, so nothing may move it.
    fn assert_width_invariant(atoms: usize, chunk_pairs: usize) {
        let what = format!("{atoms} atoms, chunk={chunk_pairs}");
        let serial = par::with_threads(1, || force_bits(atoms, chunk_pairs));
        for threads in [2, 4, 7] {
            let bits = par::with_threads(threads, || force_bits(atoms, chunk_pairs));
            assert!(serial == bits, "{what} drifted at T={threads}");
        }
        // Called from the workers of a width-4 region, two evaluations
        // run at once, each on its own scratch.
        let nested = par::with_threads(4, || {
            par::global().par_map_indexed(2, |_| force_bits(atoms, chunk_pairs))
        });
        for bits in nested {
            assert!(serial == bits, "{what} drifted inside a busy region");
        }
    }

    #[test]
    fn force_eval_bit_identical_across_threads_and_chunk_sizes() {
        // 5000 is deliberately not a multiple of the lane width, so every
        // chunk ends in a partially-filled lane group.
        let all = water_ion_box(1, 1.0, 55).pos.len();
        for chunk_pairs in [1_024, 5_000, 16_384] {
            assert_width_invariant(all, chunk_pairs);
        }
    }

    #[test]
    fn force_eval_bit_identical_across_thread_counts() {
        // At the kernel's own chunk size, the whole cell makes a list of
        // many chunks and its first 400 atoms a list of one.
        let sys = water_ion_box(1, 1.0, 55);
        for atoms in [sys.pos.len(), 400] {
            let nl = NeighborList::build(&sys.pos[..atoms], sys.box_len, 2.5, 0.4);
            assert_eq!(
                nl.npairs() < PAIR_CHUNK,
                atoms == 400,
                "{atoms} atoms, {} pairs",
                nl.npairs()
            );
            assert_width_invariant(atoms, PAIR_CHUNK);
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_reference_without_exclusions() {
        let (sys, nl, params, table) = setup();
        let coeffs = CoeffTable::new(&table, params.cutoff);
        let (f_ref, u_ref, count_ref) = scalar_reference(&sys, &nl, &coeffs, None);
        let mut s = sys.clone();
        let ev = compute_forces_into(&mut ForceScratch::new(), &mut s, &nl, &coeffs, None);
        assert_eq!(ev.pairs_evaluated, count_ref);
        let rel = (ev.potential - u_ref).abs() / u_ref.abs().max(1.0);
        assert!(rel < 1e-9, "{} vs {u_ref}", ev.potential);
        for (a, b) in s.force.iter().zip(&f_ref) {
            assert!((*a - *b).norm() < 1e-9 * b.norm().max(1.0));
        }
    }

    #[test]
    fn scratch_reuse_is_bit_stable() {
        // Re-running with warm scratch must reproduce the cold run exactly.
        let (sys, nl, params, table) = setup();
        let coeffs = CoeffTable::new(&table, params.cutoff);
        let mut scratch = ForceScratch::new();
        let mut s1 = sys.clone();
        let ev1 = compute_forces_into(&mut scratch, &mut s1, &nl, &coeffs, None);
        let mut s2 = sys.clone();
        let ev2 = compute_forces_into(&mut scratch, &mut s2, &nl, &coeffs, None);
        assert_eq!(ev1.potential.to_bits(), ev2.potential.to_bits());
        assert_eq!(ev1.virial.to_bits(), ev2.virial.to_bits());
        assert_eq!(ev1.pairs_evaluated, ev2.pairs_evaluated);
        for (a, b) in s1.force.iter().zip(&s2.force) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    /// The first `m` atoms of `sys` as a system of their own, with atom 1
    /// moved onto atom 0 so the list holds one pair at `r² = 0`.
    fn subset(sys: &System, m: usize) -> System {
        let mut s = System {
            box_len: sys.box_len,
            species: sys.species[..m].to_vec(),
            pos: sys.pos[..m].to_vec(),
            vel: vec![Vec3::ZERO; m],
            force: vec![Vec3::ZERO; m],
            unwrapped: vec![Vec3::ZERO; m],
        };
        s.pos[1] = s.pos[0];
        s
    }

    /// The batch kernel against the lane-group oracle, bit for bit:
    /// forces, potential, virial and evaluated pairs. At dims 1 and 2 it
    /// takes, for each residue 1…63 of the pair count mod [`BATCH`], the
    /// smallest atom prefix whose list has it, so every batch tail length
    /// occurs; each list holds a coincident pair and skin pairs beyond
    /// the cutoff. Each runs at six chunk sizes, with no exclusions and
    /// with every 7th pair excluded, at widths 1, 2 and 4.
    #[test]
    fn batch_kernel_equals_the_lane_group_oracle() {
        let coeffs = CoeffTable::new(&PairTable::new(), ForceParams::default().cutoff);
        let bits = |forces: &[Vec3], u: f64, vir: f64, n: u64| {
            let f: Vec<u64> =
                forces.iter().flat_map(|f| [f.x, f.y, f.z]).map(f64::to_bits).collect();
            (f, u.to_bits(), vir.to_bits(), n)
        };
        let mut skin_pairs = false;
        for dim in [1usize, 2] {
            let full = water_ion_box(dim, 1.0, 29);
            let mut seen = [false; BATCH];
            seen[0] = true;
            for m in 2..full.len() {
                if seen.iter().all(|&s| s) {
                    break;
                }
                let sys = subset(&full, m);
                let nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
                if std::mem::replace(&mut seen[nl.npairs() % BATCH], true) {
                    continue;
                }
                let pairs = nl.pairs();
                let mut ex = every_seventh_pair(&nl);
                ex.sort_unstable();
                for exclusions in [None, Some(ex.as_slice())] {
                    for chunk in [3, 5, 64, 1_024, 5_000, PAIR_CHUNK] {
                        let (f, u, vir, n) =
                            oracle_forces(&sys, &pairs, &coeffs, exclusions, chunk);
                        skin_pairs |= exclusions.is_none() && n < pairs.len() as u64 - 1;
                        let want = bits(&f, u, vir, n);
                        for threads in [1, 2, 4] {
                            let mut s = sys.clone();
                            let ev = par::with_threads(threads, || {
                                let scratch = &mut ForceScratch::new();
                                forces_chunked(scratch, &mut s, &nl, &coeffs, exclusions, chunk)
                            });
                            let got = bits(&s.force, ev.potential, ev.virial, ev.pairs_evaluated);
                            assert!(
                                got == want,
                                "dim {dim}, {m} atoms, {} pairs, chunk {chunk}, width \
                                 {threads}, exclusions {}: batch kernel differs",
                                pairs.len(),
                                exclusions.is_some()
                            );
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "dim {dim}: a residue mod {BATCH} never occurred");
        }
        assert!(skin_pairs, "no list held a pair beyond the cutoff");
    }

    /// Every force component, the potential, the virial and the evaluated
    /// pair count of the production kernel at dims 1 and 2, on the built
    /// list and on a rebuild after every atom moved, with and without
    /// every 7th stored pair excluded: one FNV-1a digest, fixed across
    /// commits. A kernel or pair-list change that moves one bit fails it.
    #[test]
    fn force_bits_are_pinned_across_commits() {
        fn fnv(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let coeffs = CoeffTable::new(&PairTable::new(), ForceParams::default().cutoff);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for dim in [1usize, 2] {
            let mut sys = water_ion_box(dim, 1.0, 11);
            let mut nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
            let mut rng = des::Rng::seed_from_u64(dim as u64);
            for round in 0..2 {
                if round == 1 {
                    let l = sys.box_len;
                    for p in &mut sys.pos {
                        let d = Vec3::new(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 0.1);
                        *p = (*p + d).wrap(l);
                    }
                    nl.rebuild(&sys.pos);
                }
                let mut ex = every_seventh_pair(&nl);
                ex.sort_unstable();
                for exclusions in [None, Some(ex.as_slice())] {
                    let ev = compute_forces_into(
                        &mut ForceScratch::new(),
                        &mut sys,
                        &nl,
                        &coeffs,
                        exclusions,
                    );
                    for f in &sys.force {
                        [f.x, f.y, f.z].iter().for_each(|c| fnv(&mut h, c.to_bits()));
                    }
                    fnv(&mut h, ev.potential.to_bits());
                    fnv(&mut h, ev.virial.to_bits());
                    fnv(&mut h, ev.pairs_evaluated);
                }
            }
        }
        assert_eq!(h, 0xf3c8_a955_f49e_7d23, "force bits digest");
    }

    /// However many chunks a list spans, the scratch holds the species
    /// cache and one atom-length partial slot, nothing else, and the bits
    /// are the lane-group oracle's at that chunk size: a dim-2 list of
    /// about 16 chunks through [`compute_forces_into`], then, on the same
    /// scratch, a dim-1 list through [`forces_chunked`] at 1 024 pairs.
    #[test]
    fn one_slot_serves_every_chunk() {
        let coeffs = CoeffTable::new(&PairTable::new(), ForceParams::default().cutoff);
        let bits = |forces: &[Vec3]| -> Vec<u64> {
            forces.iter().flat_map(|f| [f.x, f.y, f.z]).map(f64::to_bits).collect()
        };
        let mut scratch = ForceScratch::new();
        for (dim, chunk) in [(2usize, PAIR_CHUNK), (1, 1_024)] {
            let mut sys = water_ion_box(dim, 1.0, 31);
            let nl = NeighborList::build(&sys.pos, sys.box_len, 2.5, 0.4);
            let chunks = nl.npairs().div_ceil(chunk);
            assert!(chunks >= 12, "dim {dim}: only {chunks} chunks");
            let ev = if chunk == PAIR_CHUNK {
                compute_forces_into(&mut scratch, &mut sys, &nl, &coeffs, None)
            } else {
                forces_chunked(&mut scratch, &mut sys, &nl, &coeffs, None, chunk)
            };
            let ForceScratch { sp_idx, slot } = &scratch;
            assert_eq!(
                (sp_idx.len(), slot.forces.len()),
                (sys.len(), sys.len()),
                "dim {dim}, {chunks} chunks: scratch is not one atom-length slot"
            );
            let (f, u, vir, n) = oracle_forces(&sys, &nl.pairs(), &coeffs, None, chunk);
            assert_eq!(ev.pairs_evaluated, n, "dim {dim}");
            assert_eq!(ev.potential.to_bits(), u.to_bits(), "dim {dim}");
            assert_eq!(ev.virial.to_bits(), vir.to_bits(), "dim {dim}");
            assert!(bits(&sys.force) == bits(&f), "dim {dim}: forces differ from the oracle");
        }
    }

    /// Every 7th stored pair as `(min, max)`, in list order.
    fn every_seventh_pair(nl: &NeighborList) -> Vec<(u32, u32)> {
        nl.pairs().iter().step_by(7).copied().collect()
    }

    #[test]
    fn potential_matches_force_eval_bits() {
        // Both paths share the chunked lane kernel; with the default chunk
        // size they produce the same canonical sum.
        let (sys, nl, params, table) = setup();
        let mut s = sys.clone();
        let ev = compute_forces(&mut s, &nl, params, &table);
        let u = compute_potential(&sys, &nl, params, &table);
        assert_eq!(ev.potential.to_bits(), u.to_bits());
    }
}
