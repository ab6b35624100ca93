//! Host-multicore TSQR/CAQR: the same communication-avoiding algorithm
//! mapped straight onto the CPU with rayon — no simulator, no cost model,
//! just real wall-clock execution.
//!
//! This is the lineage of the paper's reference \[10\] ("CAQR was also
//! applied to multicore machines ... and resulted in speedups of up to 12x
//! over Intel's MKL at the time"), and it exists here for two reasons:
//!
//! * it is an independently useful library entry point (a fast parallel QR
//!   for tall-skinny matrices on the host), and
//! * the criterion benches use it to demonstrate the communication-avoiding
//!   effect on *real hardware*: cache-resident tiles beat the panel-
//!   streaming blocked Householder algorithm on tall-skinny inputs.
//!
//! The numerics are shared with the GPU kernels through
//! [`crate::blockops`], so every correctness guarantee carries over.

use crate::backend::{drive, CpuBackend, DriveConfig, Factorization, Mode};
use crate::block::{plan_tree, tile_panel, BlockSize, TreeShape};
use crate::blockops;
use crate::error::CaqrError;
use crate::microkernels::ReductionStrategy;
use crate::tsqr::{self, PanelFactor, TreeNode, WyTile};
use dense::arena;
use dense::blocked::PackedV;
use dense::matrix::{MatMut, MatRef, Matrix};
use dense::scalar::Scalar;
use dense::simd::GemmKernel;
use dense::MatPtr;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Options for the host execution.
#[derive(Clone, Copy, Debug)]
pub struct CpuCaqrOptions {
    /// Tile height. Pick so a `tile x width` tile sits comfortably in L2
    /// (see [`CpuCaqrOptions::for_width`]).
    pub tile_rows: usize,
    /// Panel width.
    pub panel_width: usize,
    /// Reduction-tree shape (binomial is the classic multicore choice; the
    /// default uses the same `tile/width` device arity as the GPU).
    pub tree: TreeShape,
    /// Run the ABFT checksums from [`crate::health`] after every panel:
    /// column-norm invariance of `R` always; for panels with trailing
    /// columns also the `Q . 1` orthogonality probe (whose vector doubles
    /// as the apply predictor, so it costs a vanishing fraction of the
    /// updates it guards) and predicted-vs-actual trailing column sums.
    /// Detection only: the first mismatch surfaces as
    /// [`CaqrError::ChecksumMismatch`] — the host path has no replay
    /// machinery (see [`crate::recovery`] for that).
    pub verify_checksums: bool,
}

impl CpuCaqrOptions {
    /// Choose a tile height so one `tile_rows x width` f32/f64 tile is about
    /// 128 KB — cache resident on any modern core.
    pub fn for_width(width: usize) -> Self {
        let panel_width = width.clamp(1, 32);
        let target_bytes = 128 * 1024;
        let tile_rows = (target_bytes / (8 * panel_width)).clamp(4 * panel_width, 16_384);
        CpuCaqrOptions {
            tile_rows,
            panel_width,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }

    /// Choose the tile height from a measured autotuning profile (see
    /// [`crate::tuning::autotune_measured`]), falling back to the
    /// [`Self::for_width`] heuristic when the profile has no candidate of
    /// this width. The caller loads the profile from a path it names
    /// ([`crate::tuning::MeasuredProfile::load`]); no file is read here.
    pub fn from_measured(profile: &crate::tuning::MeasuredProfile, width: usize) -> Self {
        match profile.best_for_width(width.clamp(1, 32)) {
            Some(p) => CpuCaqrOptions {
                tile_rows: p.bs.h,
                panel_width: p.bs.w,
                tree: TreeShape::DeviceArity,
                verify_checksums: false,
            },
            None => Self::for_width(width),
        }
    }

    pub(crate) fn block_size(&self) -> BlockSize {
        BlockSize {
            h: self.tile_rows,
            w: self.panel_width,
        }
    }

    /// The [`DriveConfig`] of a `caqr_cpu` run with these options.
    pub(crate) fn drive_config(&self) -> DriveConfig {
        DriveConfig {
            bs: self.block_size(),
            // Cosmetic on the host: the CPU backend's pre-transpose is a
            // no-op (each apply packs the tiles' V once, see
            // `apply_panels`), and strategy only annotates the stored
            // PanelFactors.
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: self.tree,
            check_finite: true,
            verify_checksums: self.verify_checksums,
            health_context: "caqr_cpu input",
        }
    }
}

/// The host-multicore factorization: the one [`Factorization`] type. The
/// alias stays because the standalone benchmark package names it.
pub type CpuCaqr<T> = Factorization<T>;

/// Run one packed task, catching a panic so it fails only its own member.
fn isolated<R>(task: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(task)).ok()
}

/// The error a member whose packed task panicked is carved out with.
fn panicked(stage: &str, col0: usize) -> CaqrError {
    CaqrError::Panicked {
        context: format!("{stage} task of the panel at column {col0}"),
    }
}

/// Factor the same panel of every matrix in `mats` (all of one shape) —
/// [`CpuBackend`]'s factor launch, for a standalone run (one member) and a
/// fused group alike. The level-0 `V` slab the members share is taken
/// from the calling thread's arena before any parallel region, so a
/// factor dropped on this thread hands the next run its slab warm. Level 0
/// is one parallel region over the (member × tile) grid; each tree level
/// is one region over the (member × tree-group) grid, with a barrier
/// between levels exactly where each member's own schedule has one.
/// Every task touches only its own
/// member's disjoint tile and runs under `catch_unwind`: a panic fails only
/// its member (with [`CaqrError::Panicked`]), which then drops out of the
/// later levels.
pub(crate) fn factor_panels<T: Scalar>(
    mats: &[MatPtr<T>],
    row0: usize,
    col0: usize,
    width: usize,
    cfg: &DriveConfig,
) -> Vec<Result<PanelFactor<T>, CaqrError>> {
    let g = mats.len();
    let Some(first) = mats.first() else {
        return Vec::new();
    };
    let tiles = tile_panel(row0, first.rows() - row0, cfg.bs.h, cfg.bs.w);
    let nt = tiles.len();
    // One V slab for the whole group, member `j`'s share at `j * share`:
    // a fused group holds one pooled buffer per panel, not one per member,
    // which keeps large groups inside the arena's per-class retention caps.
    let share = tsqr::v_share_len(row0, first.rows(), width);
    let mut slab = arena::take_dirty::<T>(g * share);
    let vblocks: Vec<MatPtr<T>> = slab
        .chunks_exact_mut(share)
        .flat_map(|member| tsqr::v_blocks(member, row0, width, &tiles))
        .collect();
    let wy_flat: Vec<Option<WyTile<T>>> = (0..g * nt)
        .into_par_iter()
        .map(|i| {
            let (j, ti) = (i / nt, i % nt);
            isolated(|| blockops::factor_tile(mats[j], tiles[ti], col0, width, vblocks[i]))
        })
        .collect();
    let slab = Arc::new(slab);
    let mut parts: Vec<_> = split(wy_flat, nt)
        .map(|wy0| wy0.map(|w| (w, Vec::new())))
        .collect();

    let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
    let plan = plan_tree(&starts, cfg.tree.arity(cfg.bs));
    for level in &plan.levels {
        let ng = level.len();
        let ok: Vec<usize> = (0..g).filter(|&j| parts[j].is_some()).collect();
        let work: Vec<(usize, usize)> = ok
            .iter()
            .flat_map(|&j| (0..ng).map(move |gi| (j, gi)))
            .collect();
        let nodes_flat: Vec<Option<TreeNode<T>>> = work
            .par_iter()
            .map(|&(j, gi)| {
                isolated(|| blockops::factor_tree_group(mats[j], &level[gi].members, col0, width))
            })
            .collect();
        for (j, nodes) in ok.into_iter().zip(split(nodes_flat, ng)) {
            match (nodes, &mut parts[j]) {
                (Some(nodes), Some((_, levels))) => levels.push(nodes),
                _ => parts[j] = None,
            }
        }
    }

    let mut tiles = Some(tiles);
    parts
        .into_iter()
        .enumerate()
        .map(|(j, p)| {
            let (wy0, levels) = p.ok_or_else(|| panicked("factor", col0))?;
            // The last member takes the tile list itself, so a one-member
            // launch allocates no copy (see `split`).
            let tiles = if j + 1 == g {
                tiles.take()
            } else {
                tiles.clone()
            };
            Ok(PanelFactor {
                row0,
                col0,
                width,
                tiles: tiles.expect("the tile list outlives every member but the last"),
                wy0,
                v: Arc::clone(&slab),
                v_off: j * share,
                levels,
                bs: cfg.bs,
                strategy: cfg.strategy,
            })
        })
        .collect()
}

/// Cut a packed result list back into per-member runs of `k` items: `None`
/// for a member any of whose tasks panicked. The first member keeps the
/// packed list's buffer, so a one-member launch allocates nothing here:
/// extra allocations among the factors changed how the allocator returned
/// their memory and slowed tall standalone runs by ~5%.
fn split<R>(mut flat: Vec<Option<R>>, k: usize) -> impl Iterator<Item = Option<Vec<R>>> {
    let mut runs = Vec::new();
    while flat.len() > k {
        let tail = flat.split_off(flat.len() - k);
        runs.push(tail.into_iter().collect());
    }
    runs.push(flat.into_iter().collect());
    runs.into_iter().rev()
}

/// Apply one tile's compact-WY factor (`Q`, not `Q^T`) to a single column
/// held in `c`, with hand-rolled dot/axpy loops instead of the `larfb`
/// GEMM path: at one column the GEMMs degenerate to matvecs whose packing
/// overhead dwarfs the arithmetic, and this probe helper runs once per
/// panel on the checksum hot path.
fn wy_apply_one_col<T: Scalar>(wy: &WyTile<T>, v: MatRef<'_, T>, c: &mut [T]) {
    let h = v.rows();
    let k = v.cols();
    debug_assert_eq!(c.len(), h);
    // The column kernels dispatch through the SIMD layer: at one column the
    // `larfb` GEMMs degenerate to matvecs, so the vectorized dot/axpy pair
    // is the whole arithmetic.
    let sk = T::small_kernels(dense::simd::active());
    // Dirty arena scratch: both halves are fully written before any read.
    let mut wz = arena::take_dirty::<T>(2 * k);
    let (w, z) = wz.split_at_mut(k);
    // w = V^T c  (V is the explicit dense reflector block: unit diagonal
    // stored, zeros above — full-column dot products are exact).
    for (j, wj) in w.iter_mut().enumerate() {
        let vj = v.col(j);
        // SAFETY: the kernel came from `T::small_kernels(active())`, whose
        // backend is available on this CPU.
        *wj = unsafe { (sk.dot)(vj, c) };
    }
    // z = T w  (upper triangular; `transpose == false` uses T, not T^T).
    for (i, zi) in z.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (j, &wj) in w.iter().enumerate().skip(i) {
            acc += wy.t[(i, j)] * wj;
        }
        *zi = acc;
    }
    // c -= V z, one streaming axpy per reflector column.
    for (j, &zj) in z.iter().enumerate() {
        let vj = v.col(j);
        // SAFETY: as above — the dispatched backend is available.
        unsafe { (sk.axpy)(T::ZERO - zj, vj, c) };
    }
}

/// `u = Q_p . 1`: apply the panel's packed factors (`Q`, not `Q^T`) to an
/// all-ones `m`-vector — the orthogonality probe of the ABFT checks
/// (DESIGN.md §10). Rows above the panel stay exactly `1` (the implicit
/// identity), so `||u||^2 == m` when the packed factors are intact. The
/// order is the transpose=false order of `apply_panels`: tree levels top
/// down, then level 0. The level-0 applies use [`wy_apply_one_col`], so
/// the probe costs a sliver of the factorization it verifies instead of
/// paying the one-column `larfb` GEMM overhead.
pub(crate) fn q_ones_probe<T: Scalar>(m: usize, pf: &PanelFactor<T>) -> Vec<T> {
    let mut ones = Matrix::from_fn(m, 1, |_, _| T::ONE);
    {
        let p = MatPtr::new(&mut ones);
        for nodes in pf.levels.iter().rev() {
            for node in nodes {
                blockops::apply_tree_node(p, node, pf.width, 0, 1, false);
            }
        }
    }
    // Serial over tiles: per tile this is a few streaming passes over one
    // cache-resident V block, and the whole probe measures about 2% of a
    // verified `caqr_cpu` run, so there is little for a pool region to win.
    let col = ones.col_mut(0);
    for (ti, (&tile, wy)) in pf.tiles.iter().zip(&pf.wy0).enumerate() {
        let seg = &mut col[tile.start..tile.start + tile.rows];
        let v = pf.tile_v(ti);
        if wy.healthy {
            wy_apply_one_col(wy, v, seg);
        } else {
            // Compact-WY breakdown: same per-reflector degradation as
            // `blockops::apply_tile_wy`, which never reads `T`.
            let rows = tile.rows;
            dense::householder::apply_q2(v, &wy.tau, false, MatMut::from_parts(seg, rows, 1, rows));
        }
    }
    ones.col(0).to_vec()
}

/// Most elements of tile packs one pack region fills before its tiles are
/// applied (8 MiB of f64): a panel of a wide run packs in one go, while a
/// very tall one is packed and applied in consecutive tile runs, so its
/// packs stay in one pooled size class instead of a one-off allocation
/// the size of the whole `V` slab twice over.
const PACK_CHUNK: usize = 1 << 20;

/// Apply each member's panel factor to the column blocks `cols` of its own
/// matrix — [`CpuBackend`]'s apply launch (one member for a standalone run
/// or [`Factorization::apply`], many for a fused group). The horizontal
/// step packs each level-0 tile's `V` once ([`pack_tiles`], one region
/// over the (member × tile) grid, in runs of at most [`PACK_CHUNK`]
/// elements) and then applies the packs in place in one region over the
/// (member × tile × column-block) grid; with a single column block there
/// is nothing to amortize a shared pack over, so each task packs its own
/// tile. Each tree level is one region over the (member × tree-group ×
/// column-block) grid. The order is `Q^T`'s when `transpose` and reversed
/// otherwise. Tasks are isolated as in [`factor_panels`]: a panicking task
/// fails only its member, which skips the remaining regions.
pub(crate) fn apply_panels<T: Scalar>(
    work: &[(MatPtr<T>, &PanelFactor<T>)],
    cols: &[(usize, usize)],
    transpose: bool,
) -> Vec<Result<(), CaqrError>> {
    let mut ok = vec![true; work.len()];
    let horizontal = |ok: &mut [bool]| {
        let tiles = member_items(work, ok, |pf| pf.tiles.len());
        if cols.len() == 1 {
            return apply_region(cols, ok, &tiles, |i, (c0, wc)| {
                let (j, ti) = tiles[i];
                let (c, pf) = work[j];
                let (wy, v) = (&pf.wy0[ti], pf.tile_v(ti));
                blockops::apply_tile_wy(wy, v, c, pf.tiles[ti], c0, wc, transpose)
            });
        }
        // The micro-kernel is fetched once and recorded with the packs, so
        // every task of this apply uses the kernel its packs were made for.
        let kern = T::gemm_kernel(dense::simd::active());
        let len = |&(j, ti): &(usize, usize)| {
            let v = work[j].1.tile_v(ti);
            PackedV::len(v.rows(), v.cols(), &kern)
        };
        let mut rest = &tiles[..];
        while !rest.is_empty() {
            let mut n = 1;
            let mut total = len(&rest[0]);
            while n < rest.len() && total + len(&rest[n]) <= PACK_CHUNK {
                total += len(&rest[n]);
                n += 1;
            }
            let (run, tail) = rest.split_at(n);
            rest = tail;
            // Dropped after the run, the buffer goes back to this thread's
            // cache warm for the next run or apply.
            let mut slab = arena::take_dirty::<T>(total);
            let packs = pack_tiles(work, run, ok, kern, len, &mut slab);
            apply_region(cols, ok, run, |i, (c0, wc)| {
                let (j, ti) = run[i];
                let (c, pf) = work[j];
                let v = packs[i]
                    .as_ref()
                    .expect("a member with a failed pack is skipped");
                blockops::apply_tile_wy_packed(&pf.wy0[ti], v, c, pf.tiles[ti], c0, wc, transpose)
            });
        }
    };
    let tree_level = |ok: &mut [bool], li: usize| {
        let groups = member_items(work, ok, |pf| pf.levels.get(li).map_or(0, Vec::len));
        apply_region(cols, ok, &groups, |i, (c0, wc)| {
            let (j, g) = groups[i];
            let (c, pf) = work[j];
            blockops::apply_tree_node(c, &pf.levels[li][g], pf.width, c0, wc, transpose)
        })
    };
    let nlevels = work
        .iter()
        .map(|(_, pf)| pf.levels.len())
        .max()
        .unwrap_or(0);
    if !cols.is_empty() {
        if transpose {
            horizontal(&mut ok);
            for li in 0..nlevels {
                tree_level(&mut ok, li);
            }
        } else {
            for li in (0..nlevels).rev() {
                tree_level(&mut ok, li);
            }
            horizontal(&mut ok);
        }
    }
    ok.into_iter()
        .zip(work)
        .map(|(fine, (_, pf))| {
            if fine {
                Ok(())
            } else {
                Err(panicked("apply", pf.col0))
            }
        })
        .collect()
}

/// The (member, item) pairs of the members still `ok`, where `items`
/// counts a member's tiles or tree-level groups.
fn member_items<T: Scalar>(
    work: &[(MatPtr<T>, &PanelFactor<T>)],
    ok: &[bool],
    items: impl Fn(&PanelFactor<T>) -> usize,
) -> Vec<(usize, usize)> {
    (0..work.len())
        .filter(|&j| ok[j])
        .flat_map(|j| (0..items(work[j].1)).map(move |i| (j, i)))
        .collect()
}

/// Pack the level-0 `V` of each (member, tile) of `run` for `kern` into
/// consecutive `len`-element runs of `slab`, in one pool region. Returns
/// the packs in `run` order; a member whose pack task panicked is marked
/// failed.
fn pack_tiles<'a, T: Scalar>(
    work: &[(MatPtr<T>, &'a PanelFactor<T>)],
    run: &[(usize, usize)],
    ok: &mut [bool],
    kern: GemmKernel<T>,
    len: impl Fn(&(usize, usize)) -> usize,
    slab: &'a mut [T],
) -> Vec<Option<PackedV<'a, T>>> {
    let mut rest = slab;
    let mut items = Vec::with_capacity(run.len());
    for item in run {
        let (buf, tail) = std::mem::take(&mut rest).split_at_mut(len(item));
        rest = tail;
        items.push((*item, buf));
    }
    let packs: Vec<Option<PackedV<'a, T>>> = items
        .into_par_iter()
        .map(|((j, ti), buf)| isolated(|| PackedV::pack(work[j].1.tile_v(ti), kern, buf)))
        .collect();
    for (&(j, _), pack) in run.iter().zip(&packs) {
        ok[j] &= pack.is_some();
    }
    packs
}

/// One packed region of [`apply_panels`] over the `items` × column-block
/// grid, skipping members no longer `ok`; `task` gets the index of the
/// (member, item) pair in `items` and the column block. A member any of whose tasks panicked is
/// marked failed.
fn apply_region(
    cols: &[(usize, usize)],
    ok: &mut [bool],
    items: &[(usize, usize)],
    task: impl Fn(usize, (usize, usize)) + Sync,
) {
    let tasks: Vec<(usize, usize)> = (0..items.len())
        .filter(|&i| ok[items[i].0])
        .flat_map(|i| (0..cols.len()).map(move |cb| (i, cb)))
        .collect();
    let done: Vec<(usize, bool)> = tasks
        .par_iter()
        .map(|&(i, cb)| (items[i].0, isolated(|| task(i, cols[cb])).is_some()))
        .collect();
    for (j, fine) in done {
        ok[j] &= fine;
    }
}

/// Factor `a` with host-multicore CAQR — a thin shim over the generic
/// [`crate::backend::drive`] loop on [`CpuBackend`] (see DESIGN.md §13).
pub fn caqr_cpu<T: Scalar>(
    a: Matrix<T>,
    opts: CpuCaqrOptions,
) -> Result<Factorization<T>, CaqrError> {
    drive(&CpuBackend, a, &opts.drive_config(), Mode::Sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{orthogonality_error, reconstruction_error};

    #[test]
    fn cpu_caqr_factors_correctly() {
        for (m, n, seed) in [(500usize, 24usize, 1u64), (1000, 64, 2), (333, 7, 3)] {
            let a = dense::generate::uniform::<f64>(m, n, seed);
            let f = caqr_cpu(a.clone(), CpuCaqrOptions::for_width(n)).unwrap();
            let q = f.generate_q(n).unwrap();
            let r = f.r();
            assert!(reconstruction_error(&a, &q, &r) < 1e-11, "{m}x{n}");
            assert!(orthogonality_error(&q) < 1e-11, "{m}x{n}");
        }
    }

    #[test]
    fn cpu_caqr_matches_gpu_caqr_r_up_to_sign() {
        let a = dense::generate::uniform::<f64>(800, 32, 4);
        let cpu = caqr_cpu(
            a.clone(),
            CpuCaqrOptions {
                tile_rows: 64,
                panel_width: 16,
                tree: TreeShape::DeviceArity,
                verify_checksums: false,
            },
        )
        .unwrap();
        let gpu = gpu_sim::Gpu::new(gpu_sim::DeviceSpec::c2050());
        let opts = crate::CaqrOptions {
            bs: BlockSize { h: 64, w: 16 },
            strategy: crate::ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
        };
        let sim = crate::SimBackend::sync(&gpu);
        let g = crate::drive(&sim, a, &opts.drive_config(), crate::Mode::Sync).unwrap();
        // Identical tiling + tree: results are bit-identical, not just
        // sign-equivalent.
        assert_eq!(cpu.r(), g.r());
    }

    #[test]
    fn cpu_caqr_binomial_tree_works() {
        let a = dense::generate::uniform::<f64>(600, 12, 5);
        let f = caqr_cpu(
            a.clone(),
            CpuCaqrOptions {
                tile_rows: 48,
                panel_width: 12,
                tree: TreeShape::Binomial,
                verify_checksums: false,
            },
        )
        .unwrap();
        let q = f.generate_q(12).unwrap();
        assert!(reconstruction_error(&a, &q, &f.r()) < 1e-11);
        assert!(orthogonality_error(&q) < 1e-11);
    }

    #[test]
    fn cpu_least_squares_matches_reference() {
        let m = 700;
        let n = 9;
        let a = dense::generate::uniform::<f64>(m, n, 6);
        let b: Vec<f64> = (0..m).map(|i| ((i % 13) as f64) - 6.0).collect();
        let f = caqr_cpu(a.clone(), CpuCaqrOptions::for_width(n)).unwrap();
        let x = f.least_squares(&b).unwrap();
        let x_ref = dense::blocked::least_squares(a, &b);
        for (p, q) in x.iter().zip(&x_ref) {
            assert!((p - q).abs() < 1e-8 * (1.0 + q.abs()));
        }
    }

    #[test]
    fn checksummed_cpu_run_is_bit_identical_to_plain() {
        let a = dense::generate::uniform::<f64>(700, 48, 7);
        let mut opts = CpuCaqrOptions::for_width(48);
        let plain = caqr_cpu(a.clone(), opts).unwrap();
        opts.verify_checksums = true;
        let checked = caqr_cpu(a, opts).unwrap();
        // Detection is read-only: every checksum passes and the factored
        // matrix is untouched by the verification passes.
        assert_eq!(plain.a, checked.a);
    }

    #[test]
    fn checksummed_cpu_run_detects_injected_corruption() {
        // Corrupt a factored panel's tree T matrix and re-run the probe the
        // way `caqr_cpu` would: the mismatch must surface as the typed error.
        let a = dense::generate::uniform::<f64>(600, 16, 8);
        let opts = CpuCaqrOptions {
            tile_rows: 64,
            panel_width: 16,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        };
        let mut f = caqr_cpu(a, opts).unwrap();
        let p = &mut f.panels[0];
        p.levels[0][0].tmat[(0, 1)] += 0.25;
        let u = q_ones_probe(600, p);
        match crate::health::verify_probe(&u, 0, 0) {
            Err(CaqrError::ChecksumMismatch { stage, .. }) => assert_eq!(stage, "factor"),
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    /// The smallest shape whose applies take the in-place paths: 32x16
    /// tiles applied to 16-column blocks (`2·16·16·32` flops) and
    /// two-member tree nodes whose `16x16x16` block products reach the
    /// packed-GEMM threshold. `caqr_cpu` and `Factorization::apply` run
    /// them in pool regions, writing through `MatPtr`; applying `Q^T` to a
    /// fresh matrix must equal the copy-based reference bit for bit: each
    /// tile region copied out and `larfb_left`ed, each tree node's strips
    /// gathered and `apply_stacked_wy`ed.
    #[test]
    fn tiny_in_place_applies_match_copies() {
        let opts = CpuCaqrOptions {
            tile_rows: 32,
            panel_width: 16,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        };
        let f = caqr_cpu(dense::generate::uniform::<f64>(64, 32, 10), opts).unwrap();
        let c0 = dense::generate::uniform::<f64>(64, 16, 11);
        let mut got = c0.clone();
        f.apply(&mut got, true).unwrap();
        let mut want = c0;
        let w = 16;
        for pf in &f.panels {
            for (ti, tile) in pf.tiles.iter().enumerate() {
                let mut region = want.extract(tile.start, 0, tile.rows, w);
                let t = pf.wy0[ti].t.as_ref();
                dense::blocked::larfb_left(pf.tile_v(ti), t, true, region.as_mut());
                for j in 0..w {
                    want.col_mut(j)[tile.start..tile.start + tile.rows]
                        .copy_from_slice(region.col(j));
                }
            }
            for node in pf.levels.iter().flatten() {
                let rows = node.members.len() * w;
                let at = |r: usize| node.members[r / w] + r % w;
                let mut stack = Matrix::from_fn(rows, w, |r, j| want[(at(r), j)]);
                blockops::apply_stacked_wy(node, w, stack.as_mut(), true);
                for r in 0..rows {
                    for j in 0..w {
                        want[(at(r), j)] = stack[(r, j)];
                    }
                }
            }
        }
        let bits =
            |m: &Matrix<f64>| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_bits()).collect() };
        assert!(f.panels.iter().any(|pf| !pf.levels.is_empty()));
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn tile_heights_fit_cache_budget() {
        for w in [4usize, 16, 64, 100] {
            let o = CpuCaqrOptions::for_width(w);
            let bytes = o.tile_rows * o.panel_width * 8;
            assert!(bytes <= 2 * 128 * 1024, "width {w}: tile {bytes} B");
            assert!(o.tile_rows >= 4 * o.panel_width.min(w));
        }
    }
}
