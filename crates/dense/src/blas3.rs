//! Level-3 BLAS: matrix-matrix operations.
//!
//! `gemm` is the wall-clock workhorse of the whole workspace: the compact-WY
//! trailing updates of CAQR/TSQR (`larfb`-style three-GEMM applications), the
//! blocked-Householder baselines, and the Robust PCA application (`Q * U`)
//! all funnel through it. Its core is a packed, cache-blocked, register-tiled
//! microkernel in the GotoBLAS/BLIS mold (cf. the `faer` exemplar): `op(A)`
//! and `op(B)` are repacked into contiguous `MR`/`NR` micro-panels so the
//! innermost loop streams both operands with unit stride — the CPU analogue
//! of the paper's strategy-4 panel pre-transpose, which restructured the same
//! data for coalesced access instead of cache lines.
//!
//! Parallelism: the output is split into a `row x column` task grid
//! ([`parallel_grid`]), so tall-skinny products (the shapes CAQR cares
//! about) parallelize over row blocks even when there are too few columns
//! to split.

use crate::arena;
use crate::matrix::{MatMut, MatRef};
use crate::ptr::MatPtr;
use crate::scalar::Scalar;
use rayon::prelude::*;

pub use crate::blas2::Trans;

/// Output columns per parallel task.
const PAR_COL_CHUNK: usize = 32;
/// Output rows per parallel task (row tasks kick in for narrow outputs).
const PAR_ROW_CHUNK: usize = 256;
/// Minimum flops before gemm bothers forking.
const PAR_MIN_FLOPS: usize = 1 << 18;
/// Below this many flops the packed path's buffer setup costs more than it
/// saves; fall through to the streaming triple loop.
const SMALL_FLOPS: usize = 1 << 13;

/// K-dimension cache block (packed micro-panels of both operands for one
/// `KC`-deep sweep fit in L1/L2).
const KC: usize = 256;
/// M-dimension cache block (the packed `MC x KC` A-block stays L2-resident
/// while it is reused across every NR-column micro-panel of B).
const MC: usize = 256;

/// The `(row_tasks, col_tasks)` grid `gemm` uses to parallelize an
/// `m x n x k` product. `(1, 1)` means the serial path. Exposed so tests can
/// assert that tall-skinny shapes (few columns, many rows) still fork — the
/// row split exists precisely for the `8192 x 16`-class trailing updates of
/// TSQR, which a column-only split would silently serialize.
pub fn parallel_grid(m: usize, n: usize, k: usize) -> (usize, usize) {
    let flops = 2 * m * n * k;
    if flops < PAR_MIN_FLOPS {
        return (1, 1);
    }
    let max_tasks = 4 * rayon::current_num_threads().max(1);
    let col_tasks = n.div_ceil(PAR_COL_CHUNK).min(max_tasks).max(1);
    let row_tasks = (max_tasks / col_tasks)
        .min(m.div_ceil(PAR_ROW_CHUNK))
        .max(1);
    (row_tasks, col_tasks)
}

/// `C = alpha * op(A) * op(B) + beta * C`.
pub fn gemm<T: Scalar>(
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = match ta {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    match ta {
        Trans::No => assert_eq!(a.rows(), m, "gemm: op(A) rows"),
        Trans::Yes => assert_eq!(a.cols(), m, "gemm: op(A) rows"),
    }
    match tb {
        Trans::No => assert_eq!((b.rows(), b.cols()), (k, n), "gemm: op(B) shape"),
        Trans::Yes => assert_eq!((b.cols(), b.rows()), (k, n), "gemm: op(B) shape"),
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        scale(beta, c.rb_mut());
        return;
    }

    let (row_tasks, col_tasks) = parallel_grid(m, n, k);
    if row_tasks * col_tasks <= 1 {
        gemm_serial(ta, tb, alpha, a, b, beta, c);
        return;
    }

    // Split C into a disjoint (row x column)-block task grid. Each task only
    // needs the matching rows of op(A) and columns of op(B); the C block is
    // staged through a contiguous buffer so concurrent tasks never alias
    // (the same disjoint-tile contract the CAQR kernels use).
    let rh = m.div_ceil(row_tasks);
    let ch = n.div_ceil(col_tasks);
    let mut blocks = Vec::with_capacity(row_tasks * col_tasks);
    let mut r0 = 0;
    while r0 < m {
        let nr = rh.min(m - r0);
        let mut c0 = 0;
        while c0 < n {
            let nc = ch.min(n - c0);
            blocks.push((r0, c0, nr, nc));
            c0 += nc;
        }
        r0 += nr;
    }
    let ld = c.ld();
    let cp = unsafe { MatPtr::from_raw_parts(c.as_mut_ptr(), m, n, ld) };
    blocks.into_par_iter().for_each(|(r0, c0, nr, nc)| {
        let asub = match ta {
            Trans::No => a.submatrix(r0, 0, nr, k),
            Trans::Yes => a.submatrix(0, r0, k, nr),
        };
        let bsub = match tb {
            Trans::No => b.submatrix(0, c0, k, nc),
            Trans::Yes => b.submatrix(c0, 0, nc, k),
        };
        // Arena scratch, taken dirty: `load_tile` overwrites every element,
        // so the zero-fill a fresh `vec!` would do is pure waste.
        let mut buf = arena::take_dirty::<T>(nr * nc);
        // SAFETY: the (r0, c0, nr, nc) blocks partition C disjointly.
        unsafe { cp.load_tile(r0, c0, nr, nc, &mut buf) };
        gemm_serial(
            ta,
            tb,
            alpha,
            asub,
            bsub,
            beta,
            MatMut::from_parts(&mut buf[..nr * nc], nr, nc, nr),
        );
        // SAFETY: same disjoint block.
        unsafe { cp.store_tile(r0, c0, nr, nc, &buf) };
    });
}

/// Whether [`gemm`] runs an `m x n x k` product on the packed micro-kernel
/// path alone: every block of its [`parallel_grid`] task grid (the whole
/// product when serial) reaches `SMALL_FLOPS`. Smaller blocks take the
/// streaming `gemm_small` loop, whose arithmetic differs; a caller that
/// replaces a `gemm` call by [`gemm_in_place`] checks this first to keep
/// every result bit-identical.
pub fn takes_packed_path(m: usize, n: usize, k: usize) -> bool {
    if m == 0 || n == 0 || k == 0 {
        return false;
    }
    let (row_tasks, col_tasks) = parallel_grid(m, n, k);
    // Every block but the last of a split is full, so the last is smallest.
    let last = |len: usize, tasks: usize| (len - 1) % len.div_ceil(tasks) + 1;
    2 * last(m, row_tasks) * last(n, col_tasks) * k >= SMALL_FLOPS
}

/// `op(A)` packed whole into the micro-kernel's A-panel layout, once, for
/// any number of [`gemm_in_place`] calls. Strip `s` holds rows `[s * mr,
/// s * mr + mr)` of `op(A)` column by column, `mr` lanes per column with
/// the pad lanes of a ragged last strip zeroed, so the `kb` columns from
/// `p0` — one `KC` sweep — are the contiguous run `[p0 * mr, (p0 + kb) *
/// mr)` of the strip, laid out exactly as `gemm` packs that sweep.
#[derive(Clone, Copy)]
pub struct PackedA<'a, T> {
    data: &'a [T],
    m: usize,
    k: usize,
    mr: usize,
}

impl<'a, T: Scalar> PackedA<'a, T> {
    /// Elements of the pack of an `m x k` `op(A)` for register-tile
    /// height `mr`.
    pub fn len(m: usize, k: usize, mr: usize) -> usize {
        m.div_ceil(mr) * mr * k
    }

    /// Pack `op(A)` into the front of `buf` (stale contents are fine:
    /// every element of the pack is written).
    pub fn pack(ta: Trans, a: MatRef<'_, T>, mr: usize, buf: &'a mut [T]) -> Self {
        let (m, k) = match ta {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        };
        let data = &mut buf[..Self::len(m, k, mr)];
        pack_a(ta, a, 0, m, 0, k, mr, data);
        PackedA { data, m, k, mr }
    }
}

/// `C = alpha * op(A) * B + beta * C` with `op(A)` packed by
/// [`PackedA::pack`] for `kern`, `B` the `k x n` region of `b` at `(bi,
/// bj)` read in place by the strided micro-kernel, and `C` the `m x n`
/// region of `c` at `(ci, cj)` written in place. Every `C` element runs
/// the same chain as in `gemm`'s packed path (`beta` scaling first, then
/// one fused micro-kernel pass per `KC` sweep), so where
/// [`takes_packed_path`] holds the result is bit-identical to [`gemm`].
/// Serial: the caller's parallel loop owns the regions.
///
/// # Safety
/// No other block may write the `B` region while this runs, and the `C`
/// region must belong exclusively to the calling block (the
/// [`MatPtr`] contract); `B` and `C` must not overlap.
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_in_place<T: Scalar>(
    kern: &crate::simd::GemmKernel<T>,
    alpha: T,
    a: &PackedA<'_, T>,
    b: MatPtr<T>,
    (bi, bj): (usize, usize),
    beta: T,
    c: MatPtr<T>,
    (ci, cj): (usize, usize),
    n: usize,
) {
    let (m, k, mr, nr) = (a.m, a.k, kern.mr, kern.nr);
    assert_eq!(a.mr, mr, "gemm_in_place: A was packed for another kernel");
    let bp = b.region_ptr(bi, bj, k, n);
    let cp = c.region_ptr(ci, cj, m, n);
    let (ldb, ldc) = (b.ld(), c.ld());
    if m == 0 || n == 0 {
        return;
    }
    if beta != T::ONE {
        for j in 0..n {
            scale_col(beta, std::slice::from_raw_parts_mut(cp.add(j * ldc), m));
        }
    }
    if k == 0 {
        return;
    }
    // Strips outer: one strip's sweep stays in L1 across every column
    // block of `B` (the order of the micro-kernel calls does not touch
    // any element's chain, so it is free to pick).
    let mut p0 = 0;
    while p0 < k {
        let kb = KC.min(k - p0);
        for (s, strip) in a.data.chunks_exact(mr * k).enumerate() {
            let i = s * mr;
            let mut j = 0;
            while j < n {
                let w = nr.min(n - j);
                // SAFETY: the strip's sweep holds `kb * mr` packed
                // elements, `B(p0.., j..j + w)` and the `h x w` corner of
                // `C` at `(i, j)` lie inside the regions checked above,
                // and the kernel came from an available backend.
                (kern.ukr_strided)(
                    kb,
                    strip[p0 * mr..].as_ptr(),
                    bp.add(j * ldb + p0),
                    1,
                    ldb,
                    alpha,
                    cp.add(j * ldc + i),
                    ldc,
                    mr.min(m - i),
                    w,
                );
                j += w;
            }
        }
        p0 += kb;
    }
}

fn scale<T: Scalar>(beta: T, mut c: MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    for j in 0..c.cols() {
        scale_col(beta, c.col_mut(j));
    }
}

/// `cj = beta * cj`, with `beta == 0` clearing the column outright.
fn scale_col<T: Scalar>(beta: T, cj: &mut [T]) {
    if beta == T::ZERO {
        cj.fill(T::ZERO);
    } else {
        for v in cj.iter_mut() {
            *v *= beta;
        }
    }
}

/// Serial gemm: packed/blocked for anything big enough to care, simple
/// streaming loop below [`SMALL_FLOPS`].
fn gemm_serial<T: Scalar>(
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = match ta {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    if 2 * m * n * k < SMALL_FLOPS {
        gemm_small(ta, tb, alpha, a, b, beta, c);
        return;
    }
    scale(beta, c.rb_mut());

    // The register tile is per-backend: the packing routines pad to the
    // active microkernel's MR/NR (see `crate::simd`), so one packed layout
    // serves scalar 8x4 up to AVX-512 32x8 tiles.
    let kern = T::gemm_kernel(crate::simd::active());
    let (mr, nr) = (kern.mr, kern.nr);
    let ldc = c.ld();
    let cp = c.as_mut_ptr();

    // GotoBLAS loop nest: kc-deep sweeps, each packing one op(B) slab and
    // reusing it against successive packed MC x kc blocks of op(A). Both
    // packing buffers come dirty from the arena — the pack routines
    // overwrite every live lane and explicitly zero the MR/NR pad lanes, so
    // no full-buffer zero-fill happens per call.
    let kc = KC.min(k);
    let mut ap = arena::take_dirty::<T>(MC.min(m).div_ceil(mr) * mr * kc);
    let mut bp = arena::take_dirty::<T>(n.div_ceil(nr) * nr * kc);
    let mut p0 = 0;
    while p0 < k {
        let kb = KC.min(k - p0);
        pack_b(tb, b, p0, kb, 0, n, nr, &mut bp[..n.div_ceil(nr) * nr * kb]);
        let mut i0 = 0;
        while i0 < m {
            let mb = MC.min(m - i0);
            pack_a(
                ta,
                a,
                i0,
                mb,
                p0,
                kb,
                mr,
                &mut ap[..mb.div_ceil(mr) * mr * kb],
            );
            let mpanels = mb.div_ceil(mr);
            let mut j = 0;
            let mut jp = 0;
            while j < n {
                let w = nr.min(n - j);
                let bpanel = &bp[jp * nr * kb..(jp + 1) * nr * kb];
                for ip in 0..mpanels {
                    let i = ip * mr;
                    let h = mr.min(mb - i);
                    let apanel = &ap[ip * mr * kb..(ip + 1) * mr * kb];
                    // SAFETY: the packed panels hold kb*mr / kb*nr elements,
                    // the h x w corner at C(i0+i, j) is in bounds of the
                    // column-major view behind `cp`/`ldc`, and the kernel
                    // table only holds backends available on this host.
                    unsafe {
                        (kern.ukr)(
                            kb,
                            apanel.as_ptr(),
                            bpanel.as_ptr(),
                            alpha,
                            cp.add(j * ldc + i0 + i),
                            ldc,
                            h,
                            w,
                        );
                    }
                }
                j += w;
                jp += 1;
            }
            i0 += mb;
        }
        p0 += kb;
    }
}

/// Pack the `mb x kb` block of `op(A)` starting at `(i0, p0)` into `mr`-row
/// micro-panels: panel `ip` holds rows `[ip*mr, ip*mr+mr)` column-by-column,
/// zero-padded to a full `mr` so the microkernel never branches on height.
/// `mr` is the active backend's register-tile height.
///
/// `ap` may hold stale arena contents: every live lane is overwritten and
/// the pad lanes of a ragged last panel are zeroed explicitly, so the
/// caller never has to zero-fill the whole buffer.
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Scalar>(
    ta: Trans,
    a: MatRef<'_, T>,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    mr: usize,
    ap: &mut [T],
) {
    debug_assert_eq!(ap.len(), mb.div_ceil(mr) * mr * kb);
    let mut i = 0;
    let mut base = 0;
    while i < mb {
        let h = mr.min(mb - i);
        match ta {
            Trans::No => {
                for p in 0..kb {
                    let col = &a.col(p0 + p)[i0 + i..i0 + i + h];
                    ap[base + p * mr..base + p * mr + h].copy_from_slice(col);
                }
            }
            Trans::Yes => {
                // op(A)(r, p) = A(p, r): each packed row is a column of A.
                for r in 0..h {
                    let col = &a.col(i0 + i + r)[p0..p0 + kb];
                    for (p, &v) in col.iter().enumerate() {
                        ap[base + p * mr + r] = v;
                    }
                }
            }
        }
        if h < mr {
            for p in 0..kb {
                ap[base + p * mr + h..base + (p + 1) * mr].fill(T::ZERO);
            }
        }
        i += mr;
        base += mr * kb;
    }
}

/// Pack the `kb x nb` block of `op(B)` starting at `(p0, j0)` into
/// `nr`-column micro-panels, zero-padded to a full `nr` (the active
/// backend's register-tile width).
///
/// Like [`pack_a`], `bp` may hold stale arena contents; pad lanes of a
/// ragged last panel are zeroed explicitly instead of zero-filling the
/// whole buffer up front.
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Scalar>(
    tb: Trans,
    b: MatRef<'_, T>,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    nr: usize,
    bp: &mut [T],
) {
    debug_assert_eq!(bp.len(), nb.div_ceil(nr) * nr * kb);
    let mut j = 0;
    let mut base = 0;
    while j < nb {
        let w = nr.min(nb - j);
        match tb {
            Trans::No => {
                for jj in 0..w {
                    let col = &b.col(j0 + j + jj)[p0..p0 + kb];
                    for (p, &v) in col.iter().enumerate() {
                        bp[base + p * nr + jj] = v;
                    }
                }
            }
            Trans::Yes => {
                // op(B)(p, c) = B(c, p): each packed row is a column of B.
                for p in 0..kb {
                    let col = &b.col(p0 + p)[j0 + j..j0 + j + w];
                    for (jj, &v) in col.iter().enumerate() {
                        bp[base + p * nr + jj] = v;
                    }
                }
            }
        }
        if w < nr {
            for p in 0..kb {
                bp[base + p * nr + w..base + (p + 1) * nr].fill(T::ZERO);
            }
        }
        j += nr;
        base += nr * kb;
    }
}

/// Streaming triple loop for products too small to amortize packing.
fn gemm_small<T: Scalar>(
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let m = c.rows();
    let n = c.cols();
    let k = match ta {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    // Column kernels go through the SIMD dispatch too: axpy is element-wise
    // fused on every backend (bit-identical to the scalar oracle), dot
    // reassociates the reduction (tolerance-gated).
    let sk = T::small_kernels(crate::simd::active());
    for j in 0..n {
        {
            let cj = c.col_mut(j);
            if beta == T::ZERO {
                cj.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in cj.iter_mut() {
                    *v *= beta;
                }
            }
        }
        match (ta, tb) {
            (Trans::No, Trans::No) => {
                for l in 0..k {
                    let blj = alpha * b.at(l, j);
                    if blj != T::ZERO {
                        // SAFETY: the kernel table only holds available
                        // backends; slices carry their lengths.
                        unsafe { (sk.axpy)(blj, a.col(l), c.col_mut(j)) };
                    }
                }
            }
            (Trans::No, Trans::Yes) => {
                for l in 0..k {
                    let blj = alpha * b.at(j, l);
                    if blj != T::ZERO {
                        // SAFETY: as above.
                        unsafe { (sk.axpy)(blj, a.col(l), c.col_mut(j)) };
                    }
                }
            }
            (Trans::Yes, Trans::No) => {
                // C(i,j) += alpha * dot(A(:,i), B(:,j)) — both columns contiguous.
                let bj = b.col(j);
                for i in 0..m {
                    // SAFETY: as above.
                    let acc = unsafe { (sk.dot)(a.col(i), bj) };
                    *c.at_mut(i, j) = alpha.mul_add(acc, c.at(i, j));
                }
            }
            (Trans::Yes, Trans::Yes) => {
                for i in 0..m {
                    let ai = a.col(i);
                    let mut acc = T::ZERO;
                    for (l, &x) in ai.iter().enumerate() {
                        acc = x.mul_add(b.at(j, l), acc);
                    }
                    *c.at_mut(i, j) = alpha.mul_add(acc, c.at(i, j));
                }
            }
        }
    }
}

/// Side selector for triangular operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Triangular factor multiplies from the left.
    Left,
    /// Triangular factor multiplies from the right.
    Right,
}

/// `B = U * B` (Side::Left) or `B = B * U` (Side::Right), where `U` is the
/// upper-triangular part of `u` (non-unit diagonal).
pub fn trmm_upper<T: Scalar>(side: Side, u: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    let n = u.cols();
    debug_assert!(u.rows() >= n);
    match side {
        Side::Left => {
            assert_eq!(b.rows(), n);
            for j in 0..b.cols() {
                let col = b.col_mut(j);
                crate::blas2::trmv_upper(u, col);
            }
        }
        Side::Right => {
            assert_eq!(b.cols(), n);
            // B(:,j) = sum_{l <= j} B(:,l) * U(l,j), computed right-to-left.
            for j in (0..n).rev() {
                let ujj = u.at(j, j);
                for i in 0..b.rows() {
                    let mut acc = b.at(i, j) * ujj;
                    for l in 0..j {
                        acc = b.at(i, l).mul_add(u.at(l, j), acc);
                    }
                    b.set(i, j, acc);
                }
            }
        }
    }
}

/// Solve `U * X = B` in place (X overwrites B), `U` upper triangular.
pub fn trsm_upper_left<T: Scalar>(u: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    let n = u.cols();
    debug_assert!(u.rows() >= n);
    assert_eq!(b.rows(), n);
    for j in 0..b.cols() {
        crate::blas2::trsv_upper(u, b.col_mut(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn naive_gemm(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let (m, k) = a.shape();
        let n = b.cols();
        assert_eq!(b.rows(), k);
        Matrix::from_fn(m, n, |i, j| (0..k).map(|l| a[(i, l)] * b[(l, j)]).sum())
    }

    #[test]
    fn gemm_all_transpose_combos() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let b = Matrix::from_fn(3, 5, |i, j| (2 * i + j) as f64);
        let want = naive_gemm(&a, &b);

        let combos: [(Trans, Matrix<f64>, Trans, Matrix<f64>); 4] = [
            (Trans::No, a.clone(), Trans::No, b.clone()),
            (Trans::Yes, a.transpose(), Trans::No, b.clone()),
            (Trans::No, a.clone(), Trans::Yes, b.transpose()),
            (Trans::Yes, a.transpose(), Trans::Yes, b.transpose()),
        ];
        for (ta, am, tb, bm) in combos {
            let mut c = Matrix::<f64>::zeros(4, 5);
            gemm(ta, tb, 1.0, am.as_ref(), bm.as_ref(), 0.0, c.as_mut());
            for i in 0..4 {
                for j in 0..5 {
                    assert!(
                        (c[(i, j)] - want[(i, j)]).abs() < 1e-12,
                        "({ta:?},{tb:?}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_packed_path_all_transpose_combos() {
        // Big enough for the packed path, ragged enough to exercise every
        // MR/NR/KC/MC edge (odd m, n not a multiple of NR, k > KC).
        let (m, n, k) = (101, 53, 300);
        let a = Matrix::from_fn(m, k, |i, j| (((i * 7 + j * 13) % 17) as f64 - 8.0) / 3.0);
        let b = Matrix::from_fn(k, n, |i, j| (((i * 5 + j * 11) % 13) as f64 - 6.0) / 5.0);
        let want = naive_gemm(&a, &b);
        let combos: [(Trans, Matrix<f64>, Trans, Matrix<f64>); 4] = [
            (Trans::No, a.clone(), Trans::No, b.clone()),
            (Trans::Yes, a.transpose(), Trans::No, b.clone()),
            (Trans::No, a.clone(), Trans::Yes, b.transpose()),
            (Trans::Yes, a.transpose(), Trans::Yes, b.transpose()),
        ];
        for (ta, am, tb, bm) in combos {
            let mut c = Matrix::from_fn(m, n, |i, j| (i + j) as f64);
            gemm(ta, tb, 2.0, am.as_ref(), bm.as_ref(), -1.0, c.as_mut());
            for i in 0..m {
                for j in 0..n {
                    let ref_v = 2.0 * want[(i, j)] - (i + j) as f64;
                    assert!(
                        (c[(i, j)] - ref_v).abs() < 1e-9 * (1.0 + ref_v.abs()),
                        "({ta:?},{tb:?}) at ({i},{j}): {} vs {ref_v}",
                        c[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn packed_path_is_immune_to_stale_arena_contents() {
        // Poison every pooled buffer, then run a ragged packed-path shape:
        // if `pack_a`/`pack_b` left any pad lane unzeroed, the NaNs would
        // propagate straight into C through the microkernel.
        crate::arena::poison_pools::<f64>(f64::NAN);
        let (m, n, k) = (13, 5, 64); // 2mnk just over the packed threshold
        let a = Matrix::from_fn(m, k, |i, j| (((i * 7 + j * 13) % 17) as f64 - 8.0) / 3.0);
        let b = Matrix::from_fn(k, n, |i, j| (((i * 5 + j * 11) % 13) as f64 - 6.0) / 5.0);
        let want = naive_gemm(&a, &b);
        let mut c = Matrix::<f64>::zeros(m, n);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        for i in 0..m {
            for j in 0..n {
                assert!(
                    (c[(i, j)] - want[(i, j)]).abs() < 1e-12,
                    "poisoned arena leaked into C at ({i},{j}): {}",
                    c[(i, j)]
                );
            }
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::<f64>::eye(2, 2);
        let b = Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut c = Matrix::from_row_major(2, 2, &[10.0, 10.0, 10.0, 10.0]);
        gemm(
            Trans::No,
            Trans::No,
            2.0,
            a.as_ref(),
            b.as_ref(),
            0.5,
            c.as_mut(),
        );
        assert_eq!(c[(0, 0)], 7.0); // 2*1 + 0.5*10
        assert_eq!(c[(1, 1)], 13.0);
    }

    #[test]
    fn gemm_parallel_path_matches_serial() {
        // Big enough to trigger the rayon path.
        let a = Matrix::from_fn(64, 48, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(48, 130, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        let want = naive_gemm(&a, &b);
        let mut c = Matrix::<f64>::zeros(64, 130);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        for i in 0..64 {
            for j in 0..130 {
                assert!((c[(i, j)] - want[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tall_skinny_output_uses_row_parallel_grid() {
        // The 8192 x 16 trailing-update shape must not silently serialize:
        // too few columns for a column split, so the row split must fire.
        let (rows, cols) = parallel_grid(8192, 16, 16);
        assert_eq!(cols, 1, "16 columns fit one column task");
        assert!(
            rows > 1,
            "tall-skinny gemm must split rows, got {rows} row tasks"
        );
        // And the tiny shapes must stay serial.
        assert_eq!(parallel_grid(32, 8, 8), (1, 1));
    }

    #[test]
    fn tall_skinny_parallel_matches_naive() {
        let m = 8192;
        let a = Matrix::from_fn(m, 16, |i, j| (((i * 3 + j * 7) % 23) as f64 - 11.0) / 7.0);
        let b = Matrix::from_fn(16, 16, |i, j| (((i * 13 + j) % 19) as f64 - 9.0) / 5.0);
        let want = naive_gemm(&a, &b);
        let mut c = Matrix::<f64>::zeros(m, 16);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        for i in (0..m).step_by(97) {
            for j in 0..16 {
                assert!((c[(i, j)] - want[(i, j)]).abs() < 1e-9 * (1.0 + want[(i, j)].abs()));
            }
        }
    }

    #[test]
    fn gemm_on_submatrix_views_with_ld() {
        // The packed path must respect leading dimensions on all operands.
        let big_a = Matrix::from_fn(80, 70, |i, j| ((i * 31 + j * 3) % 29) as f64 - 14.0);
        let big_b = Matrix::from_fn(70, 90, |i, j| ((i * 17 + j * 7) % 23) as f64 - 11.0);
        let a = big_a.view(5, 3, 60, 40);
        let b = big_b.view(9, 11, 40, 48);
        let mut cm = Matrix::<f64>::zeros(100, 60);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            a,
            b,
            0.0,
            cm.view_mut(7, 2, 60, 48),
        );
        let want = naive_gemm(&a.to_owned(), &b.to_owned());
        for i in 0..60 {
            for j in 0..48 {
                assert!(
                    (cm[(7 + i, 2 + j)] - want[(i, j)]).abs() < 1e-9,
                    "({i},{j})"
                );
            }
        }
        // Border untouched.
        assert_eq!(cm[(0, 0)], 0.0);
        assert_eq!(cm[(99, 59)], 0.0);
    }

    #[test]
    fn gemm_zero_k_scales_only() {
        let a = Matrix::<f64>::zeros(3, 0);
        let b = Matrix::<f64>::zeros(0, 2);
        let mut c = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            a.as_ref(),
            b.as_ref(),
            2.0,
            c.as_mut(),
        );
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(2, 1)], 8.0);
    }

    #[test]
    fn trmm_left_matches_gemm_with_triangle() {
        let u = Matrix::from_row_major(3, 3, &[2.0f64, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 7.0]);
        let b = Matrix::from_fn(3, 2, |i, j| (i + j + 1) as f64);
        let mut got = b.clone();
        trmm_upper(Side::Left, u.as_ref(), got.as_mut());
        let want = naive_gemm(&u, &b);
        for i in 0..3 {
            for j in 0..2 {
                assert!((got[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trmm_right_matches_gemm_with_triangle() {
        let u = Matrix::from_row_major(3, 3, &[2.0f64, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 7.0]);
        let b = Matrix::from_fn(2, 3, |i, j| (2 * i + j + 1) as f64);
        let mut got = b.clone();
        trmm_upper(Side::Right, u.as_ref(), got.as_mut());
        let want = naive_gemm(&b, &u);
        for i in 0..2 {
            for j in 0..3 {
                assert!((got[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trsm_inverts_trmm() {
        let u = Matrix::from_row_major(3, 3, &[2.0f64, 1.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 7.0]);
        let b = Matrix::from_fn(3, 4, |i, j| (i * 3 + j) as f64 - 4.0);
        let mut x = b.clone();
        trmm_upper(Side::Left, u.as_ref(), x.as_mut());
        trsm_upper_left(u.as_ref(), x.as_mut());
        for i in 0..3 {
            for j in 0..4 {
                assert!((x[(i, j)] - b[(i, j)]).abs() < 1e-12);
            }
        }
    }
}
