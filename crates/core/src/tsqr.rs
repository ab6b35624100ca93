//! TSQR — Tall-Skinny QR (Section II-B / Figure 2) — and the panel factor
//! types shared with the full CAQR.
//!
//! A panel factors as in the pseudocode of Figure 4: a `factor` launch
//! over the panel tiles, then one `factor_tree` launch per reduction-tree
//! level. Every executor runs that chain through
//! [`crate::backend::CaqrBackend::factor_panel`]; the resulting
//! [`PanelFactor`] holds everything needed to apply `Q`/`Q^T` later: the
//! level-0 compact-WY factors with their `V` slab (the Householder tails
//! also stay in the factored matrix) and the per-level [`TreeNode`]s.
//! TSQR itself is the driver's loop on a one-panel matrix
//! (`cols <= bs.w`): [`crate::backend::drive`] on
//! [`crate::backend::SimBackend::sync`].

use crate::block::{BlockSize, Tile};
use crate::microkernels::ReductionStrategy;
use dense::arena::ArenaBuf;
use dense::matrix::{MatRef, Matrix};
use dense::scalar::Scalar;
use dense::MatPtr;
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
    /// Storing `V` explicitly, written once per tile at factor time, spares
    /// every trailing-block apply re-deriving the unit-diagonal/zero
    /// structure per reflector (the Householder tails also stay below the
    /// diagonal of the factored matrix). Each apply then packs it once into
    /// the micro-kernel's panel layouts (`dense::blocked::PackedV`), the
    /// CPU analogue of the paper's strategy-4 pre-transpose; the factor,
    /// all a single-panel TSQR run does, packs nothing for applies. Dropping the last factor that shares a slab hands it
    /// back to the pool warm.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{drive, Factorization, Mode, SimBackend};
    use crate::block::TreeShape;
    use crate::caqr::CaqrOptions;
    use dense::generate;
    use dense::norms::{orthogonality_error, reconstruction_error};
    use gpu_sim::{DeviceSpec, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    /// TSQR: the driver's loop on one panel of the synchronous simulator.
    fn one_panel(g: &Gpu, a: Matrix<f64>, bs: BlockSize) -> Factorization<f64> {
        let o = CaqrOptions {
            bs,
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
        };
        assert!(a.cols() <= bs.w, "one panel");
        drive(&SimBackend::sync(g), a, &o.drive_config(), Mode::Sync).unwrap()
    }

    fn check_tsqr(m: usize, n: usize, bs: BlockSize, seed: u64) {
        let a = generate::uniform::<f64>(m, n, seed);
        let g = gpu();
        let f = one_panel(&g, a.clone(), bs);
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
        let f = one_panel(&g, a.clone(), BlockSize { h: 64, w: 16 });
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
        let f = one_panel(&g, a, BlockSize { h: 64, w: 16 });
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
        let f = one_panel(&g, a.clone(), BlockSize { h: 64, w: 16 });
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
    fn ledger_records_expected_kernel_mix() {
        let g = gpu();
        let a = generate::uniform::<f64>(4096, 16, 13);
        let f = one_panel(&g, a, BlockSize { h: 64, w: 16 });
        let l = g.ledger();
        assert_eq!(f.launches as u64, l.calls);
        // 64 tiles, quad tree: levels of 16, 4, 1 -> 3 factor_tree launches.
        assert_eq!(l.per_op["factor"].calls, 1);
        assert_eq!(l.per_op["factor_tree"].calls, 3);
        assert!(l.seconds > 0.0);
    }
}
