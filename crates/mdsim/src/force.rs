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
//! * **Lane batching** — pairs are processed in groups of [`LANES`]
//!   through fixed-width `[f64; LANES]` arrays, which the autovectorizer
//!   lowers to SIMD (no external crates). Masked lanes (excluded pairs,
//!   out-of-cutoff pairs, tail padding) compute on a guarded `r² = 1` and
//!   are then *selected* to exact `0.0` — never multiplied by a mask, so
//!   no `inf · 0` NaNs can leak.
//! * **Coefficient table** — per-species-pair σ², 4ε, 24ε, the LJ shift
//!   and the Coulomb prefactor live in a flat [`CoeffTable`] built once,
//!   so the inner loop does one divide and one square root per pair and
//!   zero table arithmetic.
//! * **Chunk-merged accumulation** — the pair list is cut into fixed
//!   chunks; one `par_fill` region evaluates each chunk into its own
//!   force/energy partials ([`ForceScratch`] slots), and a second one,
//!   over atoms, merges them in ascending chunk order. Chunk boundaries
//!   depend only on the pair count, and lane grouping depends only on
//!   position within the chunk, so the full floating-point op sequence
//!   is a pure function of the input: `POLIMER_THREADS=1` reproduces any
//!   other thread count bit for bit. At width 1, from inside a busy pool,
//!   or for a one-chunk list, a region runs every item on the calling
//!   thread in the same order.
//!
//! All buffers live in a caller-owned [`ForceScratch`]. At width 1
//! steady-state force evaluation performs no heap allocation (asserted
//! by the `alloc_free` test with a counting global allocator, under
//! `par::with_threads(1, ..)`); at width `w ≥ 2` each of the two regions
//! pays a fixed spawn cost: `w − 1` scoped threads and the `Vec` of their
//! join handles.

use crate::neighbor::NeighborList;
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

/// SIMD-friendly lane width: pairs are evaluated in groups of this many.
/// Two 4-wide registers' worth, so the divide and square-root chains of
/// consecutive half-groups overlap in the divider pipeline.
const LANES: usize = 8;

/// Pairs per chunk: the unit of parallel work and of the deterministic
/// merge order. Sized so the per-chunk clear + merge of an atom-length
/// partial buffer is amortized over many pairs (at the 12k-atom benchmark
/// it costs under 10 bytes of buffer traffic per pair) while still
/// splitting production pair lists into enough chunks to balance.
const PAIR_CHUNK: usize = 32_768;

/// Ceiling on chunk count: for huge pair lists the chunk size grows so
/// the per-chunk force partials (one `Vec<Vec3>` of atom length each)
/// stay bounded in memory.
const MAX_CHUNKS: usize = 64;

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
/// accumulators. Merged into the system in ascending chunk order.
#[derive(Debug, Clone, Default)]
struct ChunkSlot {
    forces: Vec<Vec3>,
    u: f64,
    vir: f64,
    evaluated: u64,
}

/// Reusable scratch owned by the caller (typically [`crate::MdEngine`]):
/// per-chunk partial accumulators and the species-index cache. Once the
/// buffers reach steady-state size, [`compute_forces_into`] at width 1
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ForceScratch {
    /// Species index per atom as `u8` (dense gather in the inner loop).
    sp_idx: Vec<u8>,
    /// One partial-result slot per chunk.
    slots: Vec<ChunkSlot>,
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

/// Evaluate up to [`LANES`] pairs as fixed-width lane arrays. Inactive
/// lanes (excluded, out of cutoff, coincident, or tail padding) run the
/// arithmetic on a guarded `r² = 1` and are selected to exact zero.
#[inline]
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
    let mut sig2 = [0.0; LANES];
    let mut e4 = [0.0; LANES];
    let mut e24 = [0.0; LANES];
    let mut ush = [0.0; LANES];
    let mut kqq = [0.0; LANES];
    for l in 0..LANES {
        let pc = c.at(ctx.sp[ii[l]], ctx.sp[jj[l]]);
        sig2[l] = pc.sigma_sq;
        e4[l] = pc.eps4;
        e24[l] = pc.eps24;
        ush[l] = pc.u_shift;
        kqq[l] = pc.kqq;
    }
    let (irc, irc2, rc) = (c.inv_rc, c.inv_rc_sq, c.cutoff);
    let mut u = [0.0; LANES];
    let mut fr = [0.0; LANES];
    for l in 0..LANES {
        // One divide + one sqrt per pair; 1/r comes from r·(1/r²).
        let inv_r2 = 1.0 / r2g[l];
        let r = r2g[l].sqrt();
        let inv_r = r * inv_r2;
        let sr2 = sig2[l] * inv_r2;
        let sr6 = sr2 * sr2 * sr2;
        let sr12 = sr6 * sr6;
        let u_lj = e4[l] * (sr12 - sr6) - ush[l];
        let f_lj = e24[l] * (2.0 * sr12 - sr6) * inv_r2;
        let u_c = kqq[l] * (inv_r - irc + (r - rc) * irc2);
        let f_c = kqq[l] * (inv_r2 - irc2) * inv_r;
        u[l] = if active[l] { u_lj + u_c } else { 0.0 };
        fr[l] = if active[l] { f_lj + f_c } else { 0.0 };
    }
    LaneGroup { ii, jj, active, dx, dy, dz, r2, u, fr }
}

/// Evaluate one chunk of pairs into `slot` (zeroed first). The lane
/// grouping and the scatter order depend only on the chunk contents, so
/// the slot is a pure function of the chunk — where it runs is irrelevant.
fn eval_chunk(ctx: &LaneCtx, pairs: &[(u32, u32)], n: usize, slot: &mut ChunkSlot) {
    slot.forces.clear();
    slot.forces.resize(n, Vec3::ZERO);
    let forces = slot.forces.as_mut_slice();
    let mut u_acc = [0.0f64; LANES];
    let mut vir_acc = [0.0f64; LANES];
    let mut evaluated = 0u64;
    for window in pairs.chunks(LANES) {
        let g = eval_lane_group(ctx, window);
        for l in 0..LANES {
            u_acc[l] += g.u[l];
            vir_acc[l] += g.fr[l] * g.r2[l];
            evaluated += g.active[l] as u64;
        }
        // Branchless scatter: inactive and padding lanes carry `fr == 0`,
        // so their force components are `±0.0` — and adding a signed zero
        // never changes an accumulator (it starts at `+0.0` and
        // round-to-nearest can never produce `-0.0` from a sum), so the
        // unconditional form is bit-identical to skipping them. The
        // active split is ~2:1 in a typical skin shell, which makes a
        // per-lane branch here mispredict constantly.
        for l in 0..LANES {
            let f = Vec3::new(g.dx[l] * g.fr[l], g.dy[l] * g.fr[l], g.dz[l] * g.fr[l]);
            forces[g.ii[l]] += f;
            forces[g.jj[l]] -= f;
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
/// Chunks are evaluated in one pool region and merged in ascending chunk
/// order in another — the identical op sequence at any width, so results
/// are bit-identical at any `POLIMER_THREADS`. With warm scratch it
/// allocates nothing at width 1; above that each region spawns its
/// workers.
pub fn compute_forces_into(
    scratch: &mut ForceScratch,
    sys: &mut System,
    nl: &NeighborList,
    coeffs: &CoeffTable,
    exclusions: Option<&[(u32, u32)]>,
) -> ForceEval {
    // Above MAX_CHUNKS · PAIR_CHUNK ≈ 2.1 M pairs the chunk grows; that
    // growth is part of the op sequence, so it fixes those lists' bits.
    let chunk = PAIR_CHUNK.max(nl.npairs().div_ceil(MAX_CHUNKS));
    forces_chunked(scratch, sys, nl, coeffs, exclusions, chunk)
}

/// [`compute_forces_into`] at an explicit chunk size. The chunk size
/// *defines* the canonical op sequence: results are bit-stable across
/// thread counts for a fixed chunk size, not across chunk sizes.
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
    let pool = par::global();
    let pairs = nl.pairs();
    let n_chunks = pairs.len().div_ceil(chunk);
    let n = sys.len();

    let System { box_len, species, pos, force, .. } = sys;
    let ForceScratch { sp_idx, slots } = scratch;
    sp_idx.clear();
    sp_idx.extend(species.iter().map(|s| s.index() as u8));
    if slots.len() < n_chunks {
        slots.resize_with(n_chunks, ChunkSlot::default);
    }
    let ctx =
        LaneCtx { pos, sp: sp_idx, coeffs, exclusions, box_len: *box_len, inv_box: 1.0 / *box_len };
    pool.par_fill(&mut slots[..n_chunks], 1, |ci, out| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(pairs.len());
        eval_chunk(&ctx, &pairs[lo..hi], n, &mut out[0]);
    });

    // Merge in ascending chunk order. Each particle's additions happen in
    // chunk order regardless of how the merge itself is split.
    let done: &[ChunkSlot] = &slots[..n_chunks];
    force.clear();
    force.resize(n, Vec3::ZERO);
    pool.par_fill(force, 4_096, |start, out| {
        for slot in done {
            let part = &slot.forces[start..start + out.len()];
            for (f, p) in out.iter_mut().zip(part) {
                *f += *p;
            }
        }
    });
    let mut potential = 0.0;
    let mut virial = 0.0;
    let mut evaluated = 0u64;
    for slot in done {
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

    /// Potential energy only (no force mutation), the gradient tests' oracle.
    ///
    /// Shares the lane-batched chunk kernel with `compute_forces_into` and
    /// folds chunk partials serially in ascending chunk order, the order
    /// the force evaluation merges them in at any thread count.
    fn compute_potential(
        sys: &System,
        nl: &NeighborList,
        params: ForceParams,
        table: &PairTable,
    ) -> f64 {
        let coeffs = CoeffTable::new(table, params.cutoff);
        let sp: Vec<u8> = sys.species.iter().map(|s| s.index() as u8).collect();
        let ctx = LaneCtx {
            pos: &sys.pos,
            sp: &sp,
            coeffs: &coeffs,
            exclusions: None,
            box_len: sys.box_len,
            inv_box: 1.0 / sys.box_len,
        };
        nl.pairs()
            .chunks(PAIR_CHUNK)
            .map(|chunk| {
                let mut u_acc = [0.0f64; LANES];
                for window in chunk.chunks(LANES) {
                    let g = eval_lane_group(&ctx, window);
                    for (acc, u) in u_acc.iter_mut().zip(g.u) {
                        *acc += u;
                    }
                }
                // Same ascending-lane fold as `eval_chunk`.
                u_acc.iter().copied().fold(0.0, |a, b| a + b)
            })
            .reduce(|a, b| a + b)
            .unwrap_or(0.0)
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
        for &(i, j) in nl.pairs() {
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
    /// region.
    fn assert_width_invariant(atoms: usize, chunk_pairs: usize) {
        let what = format!("{atoms} atoms, chunk={chunk_pairs}");
        let serial = par::with_threads(1, || force_bits(atoms, chunk_pairs));
        for threads in [2, 4, 7] {
            let bits = par::with_threads(threads, || force_bits(atoms, chunk_pairs));
            assert!(serial == bits, "{what} drifted at T={threads}");
        }
        // Called from inside a width-4 region the kernel finds the pool
        // busy and runs each of its regions on the calling thread.
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
