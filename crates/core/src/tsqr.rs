//! TSQR — Tall-Skinny QR (Section II-B / Figure 2) — and the panel
//! factor/apply drivers shared with the full CAQR.
//!
//! The host-side control flow mirrors the pseudocode of Figure 4: a
//! `factor` launch over the panel tiles, then one `factor_tree` launch per
//! reduction-tree level. The resulting [`PanelFactor`] holds everything
//! needed to apply `Q`/`Q^T` later: the level-0 compact-WY factors with
//! their `V` slab (the Householder tails also stay in the factored matrix)
//! and the per-level [`TreeNode`]s.

use crate::backend::Factorization;
use crate::block::{plan_tree, tile_panel, BlockSize, Tile, TreeShape};
use crate::error::CaqrError;
use crate::kernels::{
    ApplyQtHKernel, ApplyQtTreeKernel, FactorKernel, FactorTreeKernel, GridLaunch,
};
use crate::microkernels::ReductionStrategy;
use dense::arena::{self, ArenaBuf};
use dense::matrix::{MatRef, Matrix};
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::{Exec, Gpu};
use parking_lot::Mutex;
use std::sync::Arc;

/// One tile's factorization in compact-WY form: the upper-triangular `T`
/// of `Q = I - V T V^T` (LAPACK `larft`) and the raw `tau` scalars (kept for
/// the per-reflector reference path and the cost model). The tile's
/// explicit `V` lives in its panel's slab ([`PanelFactor::tile_v`]).
#[derive(Clone, Debug)]
pub struct WyTile<T: Scalar> {
    /// Scalar reflector factors.
    pub tau: Vec<T>,
    /// `k x k` upper-triangular compact-WY factor.
    pub t: Matrix<T>,
    /// Whether every entry of `V`/`t`/`tau` came out finite. When `false`
    /// (a compact-WY breakdown, e.g. overflow while accumulating `T`), the
    /// apply kernels fall back to the per-reflector `larf` reference path,
    /// which never touches `t`.
    pub healthy: bool,
}

/// One factored reduction-tree group: the stacked `(t*w) x w` Householder
/// factorization (`geqr2` layout) of `t` gathered R-triangles, plus the
/// absolute row offsets the triangles came from.
#[derive(Clone, Debug)]
pub struct TreeNode<T: Scalar> {
    /// Absolute row offsets of the stacked triangles (leader first).
    pub members: Vec<usize>,
    /// The factored stack: R on top, Householder tails below the diagonal.
    /// Block `i >= 1` (rows `[i*w, (i+1)*w)`) is a `w x w` upper-triangular
    /// reflector block; the implicit top block of `V` is exactly `I_w`.
    pub u: Matrix<T>,
    /// Scalar reflector factors.
    pub tau: Vec<T>,
    /// `w x w` upper-triangular compact-WY factor of the stack (precomputed
    /// at factor time so every apply is pure BLAS3).
    pub tmat: Matrix<T>,
    /// Whether `u`/`tmat`/`tau` are all finite; `false` routes applies to
    /// the per-reflector fallback path (see [`WyTile::healthy`]).
    pub healthy: bool,
}

/// The complete TSQR factorization of one panel.
#[derive(Clone, Debug)]
pub struct PanelFactor<T: Scalar> {
    /// Absolute first row of the panel.
    pub row0: usize,
    /// Absolute first column of the panel.
    pub col0: usize,
    /// Panel width (== number of reflectors per tile).
    pub width: usize,
    /// The level-0 tiles.
    pub tiles: Vec<Tile>,
    /// Per-tile compact-WY factors from the level-0 factorization.
    pub wy0: Vec<WyTile<T>>,
    /// The level-0 `V` slab, drawn from `dense::arena`: this panel's share
    /// is the `(rows_end - row0) * width` elements from offset `v_off`,
    /// tile-major. Tile `i`'s explicit unit lower-trapezoidal `V` is the
    /// contiguous column-major `tiles[i].rows x k` block at `v_off +
    /// (tiles[i].start - row0) * width`, with leading dimension
    /// `tiles[i].rows` (see [`Self::tile_v`]). A standalone run owns its
    /// slab alone; the members of a fused group share one slab per panel
    /// (DESIGN.md §9).
    ///
    /// Storing `V` explicitly, packed once per tile at factor time, is the
    /// CPU analogue of the paper's strategy-4 pre-transpose: every one of
    /// the many trailing-block applies streams it with unit stride instead
    /// of re-deriving the unit-diagonal/zero structure per reflector (the
    /// Householder tails also stay below the diagonal of the factored
    /// matrix). Dropping the last factor that shares a slab hands it back
    /// to the pool warm.
    pub(crate) v: Arc<ArenaBuf<T>>,
    /// Offset of this panel's share of `v`.
    pub(crate) v_off: usize,
    /// Reduction-tree levels, bottom-up.
    pub levels: Vec<Vec<TreeNode<T>>>,
    /// Block size used.
    pub bs: BlockSize,
    /// Strategy used (cost model only).
    pub strategy: ReductionStrategy,
}

/// Elements of one panel's share of a `V` slab (see [`PanelFactor`]'s
/// `v`): its rows `[row0, rows_end)` times its width.
pub(crate) fn v_share_len(row0: usize, rows_end: usize, width: usize) -> usize {
    (rows_end - row0) * width
}

/// One write handle per tile of `tiles` onto its `V` block in `share`, the
/// tile-major share of a `V` slab for a panel starting at row `row0` (see
/// [`PanelFactor`]'s `v`). Every element of the share is written by the
/// level-0 factor before anything reads it, so the slab is taken dirty.
/// The blocks of distinct tiles are disjoint, so the handles can go to
/// concurrent `factor` tasks under the [`MatPtr`] contract; the slab must
/// outlive every use of them.
pub(crate) fn v_blocks<T: Scalar>(
    share: &mut [T],
    row0: usize,
    width: usize,
    tiles: &[Tile],
) -> Vec<MatPtr<T>> {
    tiles
        .iter()
        .map(|tile| {
            let off = (tile.start - row0) * width;
            let k = tile.rows.min(width);
            let block = &mut share[off..off + tile.rows * k];
            // SAFETY: `block` is a live, exclusively borrowed run of exactly
            // `rows * k` elements, a column-major `rows x k` matrix with
            // `ld = rows`; the MatPtr contract covers its use after the
            // borrow ends, as for `MatPtr::new`.
            unsafe { MatPtr::from_raw_parts(block.as_mut_ptr(), tile.rows, k, tile.rows) }
        })
        .collect()
}

/// Split the columns `[from, to)` into blocks of width `w` (last may be
/// narrower) — the trailing-matrix column grid.
pub fn col_blocks(from: usize, to: usize, w: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut c = from;
    while c < to {
        let wc = w.min(to - c);
        v.push((c, wc));
        c += wc;
    }
    v
}

/// TSQR panel factorization on the simulated GPU: factor columns
/// `[col0, col0 + width)` of `a` over rows `[row0, a.rows())` in place.
pub fn factor_panel<T: Scalar>(
    gpu: &Gpu,
    a: &mut Matrix<T>,
    row0: usize,
    col0: usize,
    width: usize,
    bs: BlockSize,
    strategy: ReductionStrategy,
) -> Result<PanelFactor<T>, CaqrError> {
    let tree = TreeShape::DeviceArity;
    factor_panel_with_tree_on(gpu, Exec::Sync, a, row0, col0, width, bs, strategy, tree)
}

/// [`factor_panel`] with an explicit reduction-tree shape (Section II-B's
/// "any tree shape"; used by the tree-shape ablation) under an explicit
/// [`Exec`] policy. With
/// `Exec::Stream` the factor and tree launches are queued in order on that
/// stream; the arithmetic (and therefore the returned [`PanelFactor`]) is
/// complete when this returns either way — only the modelled timing defers
/// to `Gpu::synchronize`.
#[allow(clippy::too_many_arguments)]
pub fn factor_panel_with_tree_on<T: Scalar>(
    gpu: &Gpu,
    exec: Exec,
    a: &mut Matrix<T>,
    row0: usize,
    col0: usize,
    width: usize,
    bs: BlockSize,
    strategy: ReductionStrategy,
    tree: TreeShape,
) -> Result<PanelFactor<T>, CaqrError> {
    let m = a.rows();
    if row0 >= m || col0 + width > a.cols() || width == 0 {
        return Err(CaqrError::BadShape(format!(
            "panel (row0={row0}, col0={col0}, width={width}) out of {}x{}",
            m,
            a.cols()
        )));
    }
    bs.validate().map_err(CaqrError::BadShape)?;
    let tiles = tile_panel(row0, m - row0, bs.h, bs.w);
    let spec = gpu.spec();

    // Level 0: factor every tile independently.
    let wy_slots: Vec<Mutex<Option<WyTile<T>>>> = tiles.iter().map(|_| Mutex::new(None)).collect();
    let mut v = arena::take_dirty::<T>(v_share_len(row0, m, width));
    {
        let kernel = FactorKernel {
            launch: GridLaunch::factor(spec, &tiles, width, strategy, T::BYTES),
            a: MatPtr::new(a),
            tiles: &tiles,
            col0,
            width,
            wy: &wy_slots,
            v: &v_blocks(&mut v, row0, width, &tiles),
        };
        gpu.launch_on(exec, &kernel)?;
    }
    let wy0: Vec<WyTile<T>> = wy_slots
        .into_iter()
        .map(|m| m.into_inner().expect("factor block did not produce WY"))
        .collect();

    // Reduction tree: one factor_tree launch per level.
    let starts: Vec<usize> = tiles.iter().map(|t| t.start).collect();
    let plan = plan_tree(&starts, tree.arity(bs));
    let mut levels = Vec::with_capacity(plan.levels.len());
    for level_groups in &plan.levels {
        let out: Vec<Mutex<Option<TreeNode<T>>>> =
            level_groups.iter().map(|_| Mutex::new(None)).collect();
        {
            let arities = level_groups.iter().map(|g| g.members.len()).collect();
            let kernel = FactorTreeKernel {
                launch: GridLaunch::factor_tree(spec, arities, width, strategy, T::BYTES),
                a: MatPtr::new(a),
                groups: level_groups,
                col0,
                width,
                out: &out,
            };
            gpu.launch_on(exec, &kernel)?;
        }
        let nodes: Vec<TreeNode<T>> = out
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("factor_tree block did not produce a node")
            })
            .collect();
        levels.push(nodes);
    }

    Ok(PanelFactor {
        row0,
        col0,
        width,
        tiles,
        wy0,
        v: Arc::new(v),
        v_off: 0,
        levels,
        bs,
        strategy,
    })
}

impl<T: Scalar> PanelFactor<T> {
    /// Tile `ti`'s explicit `tiles[ti].rows x k` unit lower-trapezoidal
    /// reflector block (`k = min(rows, width)`): unit diagonal and zeros
    /// above stored, Householder tails below, `ld = rows`.
    pub fn tile_v(&self, ti: usize) -> MatRef<'_, T> {
        let tile = self.tiles[ti];
        let k = tile.rows.min(self.width);
        let off = self.v_off + (tile.start - self.row0) * self.width;
        MatRef::from_parts(&self.v[off..off + tile.rows * k], tile.rows, k, tile.rows)
    }

    /// One past the last row the panel's tiles cover (== the factored
    /// matrix's row count for a full-height panel).
    pub fn rows_end(&self) -> usize {
        self.tiles
            .last()
            .map(|t| t.start + t.rows)
            .unwrap_or(self.row0)
    }
}

/// Apply the panel's `Q^T` (`transpose == true`, reflectors in factorization
/// order) or `Q` (reverse order) to the column blocks `cols` of the matrix
/// behind `c`, under an explicit [`Exec`] policy (the apply chain —
/// horizontal kernel plus one kernel per tree level — is queued in order on
/// the stream when `Exec::Stream`). The panel's reflectors come from the
/// packed compact-WY factors cached in `pf` — the factored matrix itself is
/// no longer read.
///
/// # Safety-by-contract
/// `cols` must be disjoint column blocks of `c`.
pub fn apply_panel_ptr_on<T: Scalar>(
    gpu: &Gpu,
    exec: Exec,
    c: MatPtr<T>,
    pf: &PanelFactor<T>,
    cols: &[(usize, usize)],
    transpose: bool,
) -> Result<(), CaqrError> {
    if cols.is_empty() {
        return Ok(());
    }
    let spec = gpu.spec();
    let horizontal = |gpu: &Gpu| -> Result<(), CaqrError> {
        let kernel = ApplyQtHKernel {
            launch: GridLaunch::apply_qt_h(spec, &pf.tiles, pf.width, cols, pf.strategy, T::BYTES),
            c,
            panel: pf,
            col_blocks: cols,
            transpose,
        };
        gpu.launch_on(exec, &kernel)?;
        Ok(())
    };
    let tree_level = |gpu: &Gpu, nodes: &[TreeNode<T>]| -> Result<(), CaqrError> {
        let arities = nodes.iter().map(|n| n.members.len()).collect();
        let kernel = ApplyQtTreeKernel {
            launch: GridLaunch::apply_qt_tree(spec, arities, pf.width, cols, pf.strategy, T::BYTES),
            c,
            nodes,
            width: pf.width,
            col_blocks: cols,
            transpose,
        };
        gpu.launch_on(exec, &kernel)?;
        Ok(())
    };

    if transpose {
        // Q^T = (tree_L ... tree_1 level0)^T applied left-to-right:
        // level-0 first, then the tree levels bottom-up.
        horizontal(gpu)?;
        for nodes in &pf.levels {
            tree_level(gpu, nodes)?;
        }
    } else {
        // Q: tree levels top-down, then level-0.
        for nodes in pf.levels.iter().rev() {
            tree_level(gpu, nodes)?;
        }
        horizontal(gpu)?;
    }
    Ok(())
}

/// Factor a tall-skinny matrix (`cols <= bs.w`) with TSQR on the GPU: a
/// one-panel [`Factorization`] whose `launches` counts the health check,
/// the level-0 factor and one `factor_tree` launch per tree level. Unlike
/// [`crate::caqr::caqr`] it models no pre-transpose pass.
pub fn tsqr<T: Scalar>(
    gpu: &Gpu,
    mut a: Matrix<T>,
    bs: BlockSize,
    strategy: ReductionStrategy,
) -> Result<Factorization<T>, CaqrError> {
    let n = a.cols();
    if n > bs.w {
        return Err(CaqrError::BadShape(format!(
            "TSQR panel width {n} exceeds block width {}; use CAQR",
            bs.w
        )));
    }
    if a.rows() < n {
        return Err(CaqrError::BadShape(format!(
            "TSQR requires rows >= cols (got {}x{n})",
            a.rows()
        )));
    }
    crate::health::check_matrix_finite(gpu, Exec::Sync, &a, bs, "tsqr input")?;
    let pf = factor_panel(gpu, &mut a, 0, 0, n, bs, strategy)?;
    Ok(Factorization {
        a,
        launches: 2 + pf.levels.len(),
        panels: vec![pf],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use dense::generate;
    use dense::norms::{orthogonality_error, reconstruction_error};
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn check_tsqr(m: usize, n: usize, bs: BlockSize, seed: u64) {
        let a = generate::uniform::<f64>(m, n, seed);
        let g = gpu();
        let f = tsqr(
            &g,
            a.clone(),
            bs,
            ReductionStrategy::RegisterSerialTransposed,
        )
        .unwrap();
        let r = f.r();
        let q = f.generate_q_on(&SimBackend::sync(&g), n).unwrap();
        let rec = reconstruction_error(&a, &q, &r);
        let ort = orthogonality_error(&q);
        assert!(rec < 1e-13, "reconstruction {rec} for {m}x{n} bs {bs:?}");
        assert!(ort < 1e-13, "orthogonality {ort} for {m}x{n} bs {bs:?}");
    }

    #[test]
    fn tsqr_exact_tiles() {
        check_tsqr(512, 16, BlockSize { h: 64, w: 16 }, 1);
    }

    #[test]
    fn tsqr_ragged_tiles() {
        // 500 rows: 7 tiles of 64 + 52-row remainder (kept, >= 16).
        check_tsqr(500, 16, BlockSize { h: 64, w: 16 }, 2);
        // 459 = 64*7 + 11: remainder merges into the last tile.
        check_tsqr(459, 16, BlockSize { h: 64, w: 16 }, 3);
    }

    #[test]
    fn tsqr_narrow_panel() {
        check_tsqr(300, 5, BlockSize { h: 64, w: 16 }, 4);
        check_tsqr(300, 1, BlockSize { h: 64, w: 16 }, 5);
    }

    #[test]
    fn tsqr_single_tile() {
        check_tsqr(50, 16, BlockSize { h: 64, w: 16 }, 6);
    }

    #[test]
    fn tsqr_deep_tree() {
        // 8-ary tree with 3 levels: 128 tiles -> 16 -> 2 -> 1.
        check_tsqr(128 * 128, 16, BlockSize { h: 128, w: 16 }, 7);
    }

    #[test]
    fn tsqr_r_matches_lapack_up_to_sign() {
        let m = 640;
        let n = 12;
        let a = generate::uniform::<f64>(m, n, 8);
        let g = gpu();
        let f = tsqr(
            &g,
            a.clone(),
            BlockSize { h: 64, w: 16 },
            ReductionStrategy::RegisterSerialTransposed,
        )
        .unwrap();
        let r_tsqr = f.r();
        let mut af = a.clone();
        let tau = dense::blocked::geqrf(&mut af, 8);
        let _ = tau;
        for j in 0..n {
            for i in 0..=j {
                assert!(
                    (r_tsqr[(i, j)].abs() - af[(i, j)].abs()).abs() < 1e-10,
                    "|R| mismatch at ({i},{j}): {} vs {}",
                    r_tsqr[(i, j)],
                    af[(i, j)]
                );
            }
        }
    }

    #[test]
    fn apply_qt_then_q_is_identity() {
        let a = generate::uniform::<f64>(400, 10, 9);
        let g = gpu();
        let f = tsqr(
            &g,
            a,
            BlockSize { h: 64, w: 16 },
            ReductionStrategy::RegisterSerialTransposed,
        )
        .unwrap();
        let c0 = generate::uniform::<f64>(400, 3, 10);
        let mut c = c0.clone();
        f.apply_on(&SimBackend::sync(&g), &mut c, true).unwrap();
        f.apply_on(&SimBackend::sync(&g), &mut c, false).unwrap();
        for i in 0..400 {
            for j in 0..3 {
                assert!((c[(i, j)] - c0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qt_a_equals_r_stacked_with_zeros() {
        let a = generate::uniform::<f64>(333, 8, 11);
        let g = gpu();
        let f = tsqr(
            &g,
            a.clone(),
            BlockSize { h: 64, w: 16 },
            ReductionStrategy::RegisterSerialTransposed,
        )
        .unwrap();
        let mut c = a.clone();
        f.apply_on(&SimBackend::sync(&g), &mut c, true).unwrap();
        let r = f.r();
        // ||Q^T A - [R; 0]|| should be ~ machine epsilon relative to ||A||.
        let mut err: f64 = 0.0;
        for j in 0..8 {
            for i in 0..333 {
                let want = if i <= j { r[(i, j)] } else { 0.0 };
                err = err.max((c[(i, j)] - want).abs());
            }
        }
        assert!(err < 1e-12, "max deviation {err}");
    }

    #[test]
    fn wide_panel_rejected() {
        let g = gpu();
        let a = generate::uniform::<f64>(100, 40, 12);
        let e = tsqr(
            &g,
            a,
            BlockSize { h: 64, w: 16 },
            ReductionStrategy::RegisterSerialTransposed,
        );
        assert!(matches!(e, Err(CaqrError::BadShape(_))));
    }

    #[test]
    fn ledger_records_expected_kernel_mix() {
        let g = gpu();
        let a = generate::uniform::<f64>(4096, 16, 13);
        let f = tsqr(
            &g,
            a,
            BlockSize { h: 64, w: 16 },
            ReductionStrategy::RegisterSerialTransposed,
        )
        .unwrap();
        let l = g.ledger();
        assert_eq!(f.launches as u64, l.calls);
        // 64 tiles, quad tree: levels of 16, 4, 1 -> 3 factor_tree launches.
        assert_eq!(l.per_op["factor"].calls, 1);
        assert_eq!(l.per_op["factor_tree"].calls, 3);
        assert!(l.seconds > 0.0);
    }
}
