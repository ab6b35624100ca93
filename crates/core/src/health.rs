//! Numerical health checks on the host: the finiteness scan every
//! executor runs before factoring, and the ABFT checksums (DESIGN.md §10)
//! the driver runs around each panel.
//!
//! [`first_nonfinite`] finds the first NaN/inf entry in column-major order;
//! a backend reports it as [`CaqrError::NonFinite`]. The simulator charges
//! the scan as a `health_check` launch, one block per row tile streaming
//! its `rows x n` slab ([`crate::kernels::GridLaunch::health_check`]),
//! before it runs this same scan.

use crate::error::CaqrError;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use rayon::prelude::*;

/// Passes over fewer elements than this stay on the calling thread: below
/// it a pool region costs more than the scan or sum it would split.
const PAR_MIN_ELEMS: usize = 1 << 15;

/// `f(j)` for each column `j` in `cols`, in order. Each column of `rows`
/// elements is one pool item, so the pool splits the pass into column
/// ranges; small passes (and passes inside a region) run inline.
fn map_cols<R: Send>(
    cols: std::ops::Range<usize>,
    rows: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    if cols.len() * rows < PAR_MIN_ELEMS {
        cols.map(f).collect()
    } else {
        cols.into_par_iter().map(f).collect()
    }
}

/// The finiteness scan every executor runs (the simulator charges it
/// first). Returns the first non-finite entry in column-major order —
/// exactly the entry the element-by-element scan finds: columns are
/// scanned in parallel ranges and the first offending column in order wins.
pub fn first_nonfinite<T: Scalar>(a: &Matrix<T>) -> Option<(usize, usize)> {
    map_cols(0..a.cols(), a.rows(), |j| {
        first_nonfinite_in(a.col(j)).map(|i| (i, j))
    })
    .into_iter()
    .flatten()
    .next()
}

/// Index of the first non-finite entry of `col`.
#[allow(clippy::eq_op)] // the `x - x` probe is +0.0 iff `x` is finite, NaN otherwise
fn first_nonfinite_in<T: Scalar>(col: &[T]) -> Option<usize> {
    // Scan in blocks with a branchless lane accumulation of `x - x`
    // (exactly `+0.0` for finite `x`, NaN otherwise) so the common
    // all-finite path vectorizes; only a block that trips the check is
    // re-scanned scalar to locate the first offender.
    const BLOCK: usize = 64;
    let mut base = 0;
    let mut blocks = col.chunks_exact(BLOCK);
    for b in &mut blocks {
        let mut acc = [T::ZERO; LANES];
        for c in b.chunks_exact(LANES) {
            for l in 0..LANES {
                acc[l] += c[l] - c[l];
            }
        }
        if acc.iter().any(|&x| x != T::ZERO) {
            if let Some(i) = b.iter().position(|v| !v.is_finite()) {
                return Some(base + i);
            }
        }
        base += BLOCK;
    }
    blocks
        .remainder()
        .iter()
        .position(|v| !v.is_finite())
        .map(|i| base + i)
}

// ---------------------------------------------------------------------------
// ABFT checksums (DESIGN.md §10)
// ---------------------------------------------------------------------------
//
// The recovery executor verifies every task's output against an
// algorithm-based checksum computed from the task's *inputs*, so a silent
// data corruption is caught at the producing task instead of surfacing as a
// wrong answer (or not at all) after the run:
//
// * factor tasks — QR preserves column norms: for each panel column,
//   `sum_i A[i,j]^2` over the panel rows (taken before the factorization)
//   must equal the norm of the surviving `R` column, `sum_{i<=j} R[i,j]^2`.
//   A corrupted `R` element or a corrupted reflector (which perturbs `R`
//   through the tree reduction) breaks the invariant.
// * packed factors — the apply kernels never reread the tails in the
//   matrix; they consume the packed `V`/`T`/`tau` copies. Those are checked
//   with an orthogonality probe: `u = Q_p . 1` must satisfy
//   `||u||^2 == m` because `Q_p` is orthogonal (identity above the panel).
// * apply tasks — column sums are linear, so the post-update sum of each
//   trailing column is predicted from pre-update data as `u^T C[:,j]`
//   (`1^T Q_p^T C = (Q_p 1)^T C`). The comparison tolerance scales with
//   `sum_i |u_i C[i,j]|`, the condition of the predicted sum. A column
//   whose sums overflow f64 is summed with every entry scaled by 2^-64 on
//   both sides of the comparison, so the check sees at any scale.
//
// All accumulations are f64 regardless of `T`, split over `LANES`
// independent chains that are combined in a fixed order, so a sum does not
// wait on one serial add chain and its value does not depend on which
// thread computed it. Tolerances are `64 * rows * eps(T)` relative — loose
// enough for the rounding of `rows`-long reductions, tight enough that the
// injected `x -> 2x + 1` corruption exceeds them by orders of magnitude. For `f32`
// at very large `rows` the relative tolerance approaches O(1) and the
// factor check goes soft; the chaos soak therefore runs in `f64`.

/// Relative checksum tolerance for reductions over `rows` elements of `T`.
pub fn checksum_tol<T: Scalar>(rows: usize) -> f64 {
    64.0 * rows as f64 * T::epsilon().to_f64()
}

/// Independent accumulator chains of the vectorized scans and sums.
const LANES: usize = 8;

/// `sum_i term(x_i)` over `xs` in f64, accumulated in `LANES` independent
/// chains (element `i` feeds chain `i % LANES`) combined in lane order.
#[inline]
fn lane_sum<T: Scalar>(xs: &[T], term: impl Fn(f64) -> f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            acc[l] += term(c[l].to_f64());
        }
    }
    for (a, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *a += term(v.to_f64());
    }
    acc.iter().sum()
}

/// `(sum_i u_i c'_i, sum_i |u_i c'_i|)` with `c'_i = scale_c(c_i)`, in f64
/// with the chain split of [`lane_sum`].
#[inline]
fn lane_dot_abs<T: Scalar>(u: &[T], c: &[T], scale_c: impl Fn(f64) -> f64) -> (f64, f64) {
    let n = u.len().min(c.len());
    let (u, c) = (&u[..n], &c[..n]);
    let mut pred = [0.0f64; LANES];
    let mut scale = [0.0f64; LANES];
    let mut uc = u.chunks_exact(LANES);
    let mut cc = c.chunks_exact(LANES);
    for (ub, cb) in (&mut uc).zip(&mut cc) {
        for l in 0..LANES {
            let term = ub[l].to_f64() * scale_c(cb[l].to_f64());
            pred[l] += term;
            scale[l] += term.abs();
        }
    }
    for (l, (ui, ci)) in uc.remainder().iter().zip(cc.remainder()).enumerate() {
        let term = ui.to_f64() * scale_c(ci.to_f64());
        pred[l] += term;
        scale[l] += term.abs();
    }
    (pred.iter().sum(), scale.iter().sum())
}

/// The global column indices of `col_blocks`, in order.
fn block_cols(col_blocks: &[(usize, usize)]) -> Vec<usize> {
    col_blocks
        .iter()
        .flat_map(|&(c0, wc)| c0..c0 + wc)
        .collect()
}

/// The 2-norm of `xs`, accumulated in f64. The plain sum of squares is
/// the fast path; a sum that overflows, or falls below
/// `f64::MIN_POSITIVE / ε` where squaring has underflowed, is recomputed as
/// a scaled sum of squares ([`dense::blas1::nrm2`]), so entries near
/// either end of the f64 range keep their norm.
fn col_norm<T: Scalar>(xs: &[T]) -> f64 {
    let sumsq = lane_sum(xs, |x| x * x);
    if sumsq.is_finite() && sumsq >= f64::MIN_POSITIVE / f64::EPSILON {
        sumsq.sqrt()
    } else {
        dense::blas1::nrm2(xs).to_f64()
    }
}

/// Per-column 2-norm over rows `row0..` of panel columns
/// `col0..col0+width` — the pre-factor checksum.
pub fn panel_col_norms<T: Scalar>(
    a: &Matrix<T>,
    row0: usize,
    col0: usize,
    width: usize,
) -> Vec<f64> {
    map_cols(col0..col0 + width, a.rows() - row0, |j| {
        col_norm(&a.col(j)[row0..])
    })
}

/// Per-column 2-norm of the surviving `R` triangle: `R[..=j, j]` read from
/// the factored matrix at `(row0, col0)`.
fn r_col_norms<T: Scalar>(a: &Matrix<T>, row0: usize, col0: usize, width: usize) -> Vec<f64> {
    (0..width)
        .map(|j| col_norm(&a.col(col0 + j)[row0..row0 + j + 1]))
        .collect()
}

/// Check the factor-stage invariant `pre[j] == post[j]` (column norms) to
/// relative tolerance on the sums of squares: `1 - (lo/hi)^2`, which never
/// squares a norm, so it holds at any scale. A non-finite side is a
/// mismatch. `col0` converts the panel-local index of the first mismatch
/// into the global column reported by [`CaqrError::ChecksumMismatch`].
fn verify_factor_checksums<T: Scalar>(
    pre: &[f64],
    post: &[f64],
    rows: usize,
    panel: usize,
    col0: usize,
) -> Result<(), CaqrError> {
    let tol = checksum_tol::<T>(rows);
    for (j, (&p, &q)) in pre.iter().zip(post).enumerate() {
        let (lo, hi) = (p.min(q), p.max(q));
        let r = if hi > 0.0 { lo / hi } else { 1.0 };
        if !(p.is_finite() && q.is_finite() && (1.0 - r) * (1.0 + r) <= tol) {
            return Err(CaqrError::ChecksumMismatch {
                stage: "factor",
                panel,
                col: col0 + j,
            });
        }
    }
    Ok(())
}

/// Check the orthogonality probe: `||u||^2` must equal `u.len()` to
/// relative tolerance. Failure means the packed `V`/`T`/`tau` factors the
/// applies consume are corrupted, reported against the panel's first column.
pub fn verify_probe<T: Scalar>(u: &[T], panel: usize, col0: usize) -> Result<(), CaqrError> {
    let sumsq = lane_sum(u, |x| x * x);
    let m = u.len() as f64;
    if !sumsq.is_finite() || (sumsq - m).abs() > checksum_tol::<T>(u.len()) * m {
        return Err(CaqrError::ChecksumMismatch {
            stage: "factor",
            panel,
            col: col0,
        });
    }
    Ok(())
}

/// The power of two a column's apply sums are scaled by when their plain
/// f64 sums overflow. With `|u_i| <= sqrt(rows)` (the probe has norm
/// `sqrt(rows)`), `sum_i |u_i c_ij|` of a finite column then stays finite
/// below 2^42 rows; the entries that underflow are negligible beside a
/// column whose sum overflowed. Scaling by a power of two is exact, so the
/// check compares the same numbers it would unscaled.
const SUM_SCALE: f64 = 1.0 / (1u128 << 64) as f64;

/// Per-column `(prediction, scale, scaled)` of the post-update sums of the
/// columns in `col_blocks`, computed from *pre-update* data: prediction
/// `sum_i u[i] * c[i,j]`, scale `sum_i |u[i] * c[i,j]|` (the tolerance
/// reference for the cancellation-prone prediction). The plain sums are
/// the fast path; a column whose prediction or scale is not finite is
/// recomputed with every `c[i,j]` scaled by `SUM_SCALE` (2^-64), and
/// `scaled` tells the apply-sum check to scale that column's observed sum
/// the same way.
pub fn predicted_col_sums<T: Scalar>(
    u: &[T],
    c: &Matrix<T>,
    col_blocks: &[(usize, usize)],
) -> Vec<(f64, f64, bool)> {
    let cols = block_cols(col_blocks);
    map_cols(0..cols.len(), c.rows(), |k| {
        let col = c.col(cols[k]);
        match lane_dot_abs(u, col, |x| x) {
            (pred, scale) if pred.is_finite() && scale.is_finite() => (pred, scale, false),
            _ => {
                let (pred, scale) = lane_dot_abs(u, col, |x| x * SUM_SCALE);
                (pred, scale, true)
            }
        }
    })
}

/// Per-column sums of the columns in `col_blocks` (f64 accumulation) — the
/// post-update observation the predictions `pred` are checked against,
/// each scaled as its prediction was.
fn actual_col_sums<T: Scalar>(
    c: &Matrix<T>,
    col_blocks: &[(usize, usize)],
    pred: &[(f64, f64, bool)],
) -> Vec<f64> {
    let cols = block_cols(col_blocks);
    map_cols(0..cols.len(), c.rows(), |k| {
        let col = c.col(cols[k]);
        if pred[k].2 {
            lane_sum(col, |x| x * SUM_SCALE)
        } else {
            lane_sum(col, |x| x)
        }
    })
}

/// Check the apply-stage checksums: each observed column sum must match its
/// prediction within `tol * scale`. The first mismatch is reported with the
/// *global* column index recovered from `col_blocks`.
fn verify_apply_checksums<T: Scalar>(
    pred: &[(f64, f64, bool)],
    actual: &[f64],
    col_blocks: &[(usize, usize)],
    rows: usize,
    panel: usize,
) -> Result<(), CaqrError> {
    let tol = checksum_tol::<T>(rows);
    let cols = col_blocks.iter().flat_map(|&(c0, wc)| c0..c0 + wc);
    for ((&(p, scale, _), &a), col) in pred.iter().zip(actual).zip(cols) {
        if !a.is_finite() || (p - a).abs() > tol * scale.max(f64::MIN_POSITIVE) {
            return Err(CaqrError::ChecksumMismatch {
                stage: "apply",
                panel,
                col,
            });
        }
    }
    Ok(())
}

/// Composite factor-stage verification: read the surviving `R` column
/// norms at `(c, c)` and check them against the pre-factor checksums
/// `pre` ([`panel_col_norms`] of the same columns). `panel` and `c` locate
/// the mismatch report; the tolerance scales with the panel height
/// `m - c`. The one factor-stage check of the driver's panel loop, for
/// solo runs, fused groups and the replay ladder alike.
pub fn factor_norm_check<T: Scalar>(
    a: &Matrix<T>,
    pre: &[f64],
    m: usize,
    panel: usize,
    c: usize,
    width: usize,
) -> Result<(), CaqrError> {
    let post = r_col_norms(a, c, c, width);
    verify_factor_checksums::<T>(&pre[..width], &post, m - c, panel, c)
}

/// Composite apply-stage verification: observe the post-update column sums
/// of `cols` and check them against the predictions `pred`
/// ([`predicted_col_sums`] over the same blocks). The counterpart of
/// [`factor_norm_check`] for the trailing update.
pub fn apply_sum_check<T: Scalar>(
    a: &Matrix<T>,
    pred: &[(f64, f64, bool)],
    cols: &[(usize, usize)],
    m: usize,
    panel: usize,
) -> Result<(), CaqrError> {
    let actual = actual_col_sums(a, cols, pred);
    verify_apply_checksums::<T>(pred, &actual, cols, m, panel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CaqrBackend, DriveConfig, SimBackend};
    use crate::block::BlockSize;
    use crate::microkernels::ReductionStrategy;
    use crate::multicore::q_ones_probe;
    use crate::tsqr::{col_blocks, PanelFactor};
    use crate::TreeShape;
    use dense::MatPtr;
    use gpu_sim::{DeviceSpec, Gpu};

    fn bs() -> BlockSize {
        BlockSize { h: 32, w: 8 }
    }

    #[test]
    fn finite_matrix_passes_and_charges_one_launch() {
        let g = Gpu::new(DeviceSpec::c2050());
        let a = dense::generate::uniform::<f64>(100, 12, 1);
        let launches = SimBackend::sync(&g).check_finite(&a, bs(), "test input");
        assert_eq!(launches, Ok(1));
        let l = g.ledger();
        assert_eq!(l.calls, 1);
        assert_eq!(l.per_op["health_check"].calls, 1);
        // One full read pass over the matrix.
        assert!(l.dram_bytes >= (100 * 12 * 8) as f64);
        assert_eq!(l.flops, 0.0);
    }

    #[test]
    fn first_offender_is_column_major_even_across_tiles() {
        let g = Gpu::new(DeviceSpec::c2050());
        let mut a = dense::generate::uniform::<f64>(100, 12, 2);
        // A later-column NaN in an early tile and an earlier-column NaN in a
        // late tile: column-major order picks the latter.
        a[(3, 7)] = f64::NAN;
        a[(90, 2)] = f64::INFINITY;
        let sim = SimBackend::sync(&g);
        let e = sim.check_finite(&a, bs(), "test input").unwrap_err();
        assert_eq!(
            e,
            CaqrError::NonFinite {
                context: "test input",
                row: 90,
                col: 2
            }
        );
        assert_eq!(first_nonfinite(&a), Some((90, 2)));
    }

    /// The element-by-element column-major scan `first_nonfinite` must
    /// reproduce.
    fn naive_first_nonfinite(a: &Matrix<f64>) -> Option<(usize, usize)> {
        (0..a.cols())
            .flat_map(|j| (0..a.rows()).map(move |i| (i, j)))
            .find(|&(i, j)| !a[(i, j)].is_finite())
    }

    #[test]
    fn parallel_host_scan_reports_the_serial_first_offender() {
        // Large enough to split over the pool; several offenders in several
        // columns and rows, planted one at a time from the back so the
        // expected answer moves across column ranges and block boundaries.
        let (m, n) = (1031usize, 70usize);
        let mut a = dense::generate::uniform::<f64>(m, n, 9);
        assert_eq!(first_nonfinite(&a), None);
        let plants = [
            (1030, 69, f64::NAN),
            (5, 64, f64::INFINITY),
            (700, 41, f64::NEG_INFINITY),
            (64, 41, f64::NAN),
            (1023, 33, f64::INFINITY),
            (0, 33, f64::NAN),
            (999, 2, f64::NAN),
            (63, 2, f64::INFINITY),
        ];
        for (i, j, v) in plants {
            a[(i, j)] = v;
            let want = naive_first_nonfinite(&a);
            assert_eq!(first_nonfinite(&a), want, "after planting ({i}, {j})");
            assert_eq!(want, Some((i, j)));
        }
    }

    #[test]
    fn host_scan_matches_kernel_scan_on_clean_input() {
        let a = dense::generate::uniform::<f32>(64, 4, 3);
        assert_eq!(first_nonfinite(&a), None);
    }

    // -- ABFT checksums -----------------------------------------------------

    /// A binomial-tree panel configuration with block size `bs`.
    fn binomial(bs: BlockSize) -> DriveConfig {
        DriveConfig {
            bs,
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::Binomial,
            check_finite: false,
            verify_checksums: false,
            health_context: "test input",
        }
    }

    fn factored_panel(
        m: usize,
        n: usize,
        w: usize,
    ) -> (Gpu, Matrix<f64>, Vec<f64>, PanelFactor<f64>) {
        let g = Gpu::new(DeviceSpec::c2050());
        let mut a = dense::generate::uniform::<f64>(m, n, 42);
        let pre = panel_col_norms(&a, 0, 0, w);
        let sim = SimBackend::sync(&g);
        let pf = sim
            .factor_panel(0, &mut a, 0, 0, w, &binomial(bs()))
            .unwrap();
        (g, a, pre, pf)
    }

    #[test]
    fn lane_split_sums_match_sequential_sums_and_still_catch_corruption() {
        // Row counts around and between multiples of the lane count, and
        // past the size where the passes fork over the pool.
        for rows in [1usize, 5, 7, 8, 9, 13, 63, 1001, 4099] {
            let cols = 24;
            let a = dense::generate::uniform::<f64>(rows, cols, rows as u64);
            let u: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 5) as f64 / 7.0).collect();
            let blocks = [(0usize, 8usize), (8, 16)];
            let tol = checksum_tol::<f64>(rows);
            let close = |got: f64, want: f64, scale: f64| {
                (got - want).abs() <= tol * scale.max(f64::MIN_POSITIVE)
            };

            let norms = panel_col_norms(&a, 0, 0, cols);
            let pred = predicted_col_sums(&u, &a, &blocks);
            let actual = actual_col_sums(&a, &blocks, &pred);
            for j in 0..cols {
                let col = a.col(j);
                let want_sq: f64 = col.iter().map(|x| x * x).sum();
                assert!(
                    close(norms[j] * norms[j], want_sq, want_sq),
                    "sumsq rows {rows} col {j}"
                );
                let want_pred: f64 = u.iter().zip(col).map(|(ui, c)| ui * c).sum();
                let want_scale: f64 = u.iter().zip(col).map(|(ui, c)| (ui * c).abs()).sum();
                assert!(
                    close(pred[j].0, want_pred, want_scale),
                    "pred rows {rows} col {j}"
                );
                assert!(
                    close(pred[j].1, want_scale, want_scale),
                    "scale rows {rows} col {j}"
                );
                let want_sum: f64 = col.iter().sum();
                let abs: f64 = col.iter().map(|x| x.abs()).sum();
                assert!(close(actual[j], want_sum, abs), "sum rows {rows} col {j}");
            }
            // Unchanged data passes its own apply check; the injected
            // `x -> 2x + 1` corruption of one element is caught at its column.
            let ones = vec![1.0f64; rows];
            let pred = predicted_col_sums(&ones, &a, &blocks);
            verify_apply_checksums::<f64>(&pred, &actual, &blocks, rows, 0).unwrap();
            let mut bad = a.clone();
            let (i, j) = (rows / 2, 13);
            bad[(i, j)] = bad[(i, j)] * 2.0 + 1.0;
            let e = verify_apply_checksums::<f64>(
                &pred,
                &actual_col_sums(&bad, &blocks, &pred),
                &blocks,
                rows,
                0,
            )
            .unwrap_err();
            assert_eq!(
                e,
                CaqrError::ChecksumMismatch {
                    stage: "apply",
                    panel: 0,
                    col: j
                },
                "rows {rows}"
            );
            let post = panel_col_norms(&bad, 0, 0, cols);
            let e = verify_factor_checksums::<f64>(&norms, &post, rows, 0, 0).unwrap_err();
            assert!(matches!(e, CaqrError::ChecksumMismatch { col, .. } if col == j));
        }
    }

    #[test]
    fn factor_checksums_hold_on_a_clean_panel_and_catch_a_corrupted_r() {
        let (_g, mut a, pre, _pf) = factored_panel(160, 16, 8);
        let post = r_col_norms(&a, 0, 0, 8);
        verify_factor_checksums::<f64>(&pre, &post, 160, 0, 0).unwrap();

        // An SDC-style bump on one R element breaks the invariant at that
        // column.
        a[(2, 5)] = a[(2, 5)] * 2.0 + 1.0;
        let post = r_col_norms(&a, 0, 0, 8);
        let e = verify_factor_checksums::<f64>(&pre, &post, 160, 3, 0).unwrap_err();
        assert_eq!(
            e,
            CaqrError::ChecksumMismatch {
                stage: "factor",
                panel: 3,
                col: 5
            }
        );
    }

    #[test]
    fn factor_check_holds_and_catches_corruption_at_extreme_scales() {
        // At 1e300 a plain sum of squares overflows on both sides (and
        // `inf - inf` is NaN, which passed); at 1e-300 it underflows to 0
        // on both sides. Neither may hide a tripled `R`.
        for scale in [1e300, 1e-300] {
            let mut a = dense::generate::uniform::<f64>(256, 16, 7);
            a.as_mut_slice().iter_mut().for_each(|x| *x *= scale);
            let pre = panel_col_norms(&a, 0, 0, 16);
            let g = Gpu::new(DeviceSpec::c2050());
            let cfg = binomial(BlockSize { h: 64, w: 16 });
            SimBackend::sync(&g)
                .factor_panel(0, &mut a, 0, 0, 16, &cfg)
                .unwrap();
            factor_norm_check::<f64>(&a, &pre, 256, 0, 0, 16)
                .unwrap_or_else(|e| panic!("clean panel at {scale:e}: {e}"));
            for j in 0..16 {
                a.col_mut(j)[..=j].iter_mut().for_each(|x| *x *= 3.0);
            }
            let e = factor_norm_check::<f64>(&a, &pre, 256, 0, 0, 16);
            assert!(
                matches!(e, Err(CaqrError::ChecksumMismatch { col: 0, .. })),
                "tripled R at {scale:e}: {e:?}"
            );
        }
    }

    #[test]
    fn ones_probe_is_unit_norm_per_row_and_catches_a_corrupted_t_factor() {
        let (_g, a, _pre, mut pf) = factored_panel(160, 16, 8);
        let u = q_ones_probe(a.rows(), &pf);
        verify_probe(&u, 0, 0).unwrap();

        pf.wy0[1].t[(0, 3)] += 0.5;
        let u = q_ones_probe(a.rows(), &pf);
        let e = verify_probe(&u, 0, 0).unwrap_err();
        assert!(matches!(
            e,
            CaqrError::ChecksumMismatch {
                stage: "factor",
                ..
            }
        ));
    }

    #[test]
    fn apply_checksums_predict_trailing_sums_and_catch_a_bumped_element() {
        let (g, mut a, _pre, pf) = factored_panel(160, 24, 8);
        let u = q_ones_probe(a.rows(), &pf);
        let cols = col_blocks(8, 24, 8);
        let pred = predicted_col_sums(&u, &a, &cols);
        let ptr = MatPtr::new(&mut a);
        SimBackend::sync(&g)
            .apply_panel(0, ptr, &pf, &cols, true)
            .unwrap();
        let actual = actual_col_sums(&a, &cols, &pred);
        verify_apply_checksums::<f64>(&pred, &actual, &cols, 160, 0).unwrap();

        // Corrupt one updated element: the checksum localizes the column.
        a[(40, 13)] = a[(40, 13)] * 2.0 + 1.0;
        let actual = actual_col_sums(&a, &cols, &pred);
        let e = verify_apply_checksums::<f64>(&pred, &actual, &cols, 160, 2).unwrap_err();
        assert_eq!(
            e,
            CaqrError::ChecksumMismatch {
                stage: "apply",
                panel: 2,
                col: 13
            }
        );
    }
}
