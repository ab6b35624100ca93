//! Blocked Householder QR (LAPACK `geqrf` / `larft` / `larfb` / `orgqr` /
//! `ormqr` analogues).
//!
//! This is the algorithm of Figure 1 in the paper: a BLAS2 panel
//! factorization followed by a BLAS3 trailing-matrix update through the
//! compact `WY` representation `Q = I - V T V^T`. It is the algorithm that
//! MAGMA, CULA and MKL all use, and therefore the heart of every baseline.

use crate::blas3::{gemm, gemm_in_place, takes_packed_path, PackedA, Trans};
use crate::householder::geqr2;
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::ptr::MatPtr;
use crate::scalar::Scalar;
use crate::simd::GemmKernel;

/// Default panel width. LAPACK uses 32-64; the GPU baselines override it.
pub const DEFAULT_NB: usize = 32;

/// Form the upper-triangular block reflector `T` (LAPACK `larft`, forward
/// columnwise) from `k` reflectors stored in the columns of `v`
/// (unit lower-trapezoidal, as produced by [`geqr2`]) and their `tau`s.
pub fn larft<T: Scalar>(v: MatRef<'_, T>, tau: &[T]) -> Matrix<T> {
    let m = v.rows();
    let k = tau.len();
    debug_assert!(v.cols() >= k);
    let mut t = Matrix::<T>::zeros(k, k);
    for i in 0..k {
        let ti = tau[i];
        t[(i, i)] = ti;
        if ti == T::ZERO {
            continue;
        }
        // t[0..i, i] = -tau_i * V[:, 0..i]^T * v_i, using the implicit
        // unit-diagonal/zero structure of v_i (nonzeros at rows i.. with
        // v_i[i] = 1).
        for j in 0..i {
            // dot over rows i..m of column j and column i; v(i, j) entries
            // below the diagonal of column j, plus the unit element of v_i.
            let mut acc = v.at(i, j); // v_j[i] * v_i[i] with v_i[i] == 1
            for r in i + 1..m {
                acc = v.at(r, j).mul_add(v.at(r, i), acc);
            }
            t[(j, i)] = -ti * acc;
        }
        // t[0..i, i] = T[0..i, 0..i] * t[0..i, i]  (triangular matvec).
        for row in 0..i {
            let mut acc = T::ZERO;
            for l in row..i {
                acc = t[(row, l)].mul_add(t[(l, i)], acc);
            }
            t[(row, i)] = acc;
        }
    }
    t
}

/// Materialize the unit lower-trapezoidal `V` (m x k) from a factored panel
/// (explicit ones on the diagonal, zeros above).
pub fn extract_v<T: Scalar>(panel: MatRef<'_, T>, k: usize) -> Matrix<T> {
    let m = panel.rows();
    Matrix::from_fn(m, k, |i, j| {
        if i > j {
            panel.at(i, j)
        } else if i == j {
            T::ONE
        } else {
            T::ZERO
        }
    })
}

/// [`larft`] over a **pre-transposed** factored panel
/// (`at[r * width + j] == A(r, j)`), bit-identical to
/// `larft(extract_v(panel), tau)`.
///
/// The `V^T V` Gram accumulators are built in one streaming pass over the
/// contiguous rows: for each pair `j < i` the chain starts from the
/// reference's `v_j[i] * v_i[i]` seed (`v_i[i] == 1`, i.e. `A(i, j)`) and
/// adds `A(r, j) * A(r, i)` terms in ascending `r` with the same `mul_add`,
/// so every accumulator reproduces the reference chain exactly. The
/// triangular `T` assembly then matches [`larft`] statement for statement.
///
/// `tri_block` declares stacked-triangle structure as in
/// [`crate::householder::geqr2_transposed`]: products whose row is a
/// structural zero of either column are skipped (a zero-sign-only change).
pub fn larft_transposed<T: Scalar>(
    at: &[T],
    rows: usize,
    width: usize,
    tri_block: usize,
    tau: &[T],
) -> Matrix<T> {
    let k = tau.len();
    debug_assert!(k <= rows.min(width));
    debug_assert_eq!(at.len(), rows * width);
    let mut gram = crate::arena::take_dirty::<T>(k * k);
    // Tiered through the runtime SIMD dispatch: the pass autovectorizes, so
    // compiling it with the active backend's ISA is all it needs. Every
    // tier is bit-identical (hardware FMA rounds like the libm `fma` of the
    // default codegen, and the chains are per-pair independent).
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the active backend's features are present on this host by
        // construction of `crate::simd::active`.
        match crate::simd::active() {
            crate::simd::Backend::Avx512 => {
                unsafe { gram_pass_x86_avx512(at, rows, width, tri_block, k, &mut gram) };
                return larft_from_gram(&gram, tau);
            }
            crate::simd::Backend::Avx2 => {
                unsafe { gram_pass_x86_avx2(at, rows, width, tri_block, k, &mut gram) };
                return larft_from_gram(&gram, tau);
            }
            crate::simd::Backend::Fma => {
                unsafe { gram_pass_x86_fma(at, rows, width, tri_block, k, &mut gram) };
                return larft_from_gram(&gram, tau);
            }
            _ => {}
        }
    }
    gram_pass(at, rows, width, tri_block, k, &mut gram);
    larft_from_gram(&gram, tau)
}

/// Assemble `T` directly from Gram accumulators — the tail of [`larft`],
/// statement for statement. This is the partner of the fused
/// [`crate::householder::geqr2_gram_transposed`] sweep, which builds the
/// same `gram` contents inside the factor passes; the pair produces exactly
/// the `T` that `larft_transposed` (and hence [`larft`]) would.
pub fn larft_from_gram<T: Scalar>(gram: &[T], tau: &[T]) -> Matrix<T> {
    let k = tau.len();
    debug_assert!(gram.len() >= k * k);
    let backend = crate::simd::active();
    if backend != crate::simd::Backend::Scalar {
        return assemble_t_simd(gram, tau, k, backend);
    }
    assemble_t(gram, tau, k)
}

/// [`assemble_t`] as a **column sweep** through the runtime SIMD dispatch
/// tables: instead of one serial dot chain per row of `T[0..i, i]`, the
/// triangular matvec is computed as `i` fused-axpy updates over the
/// contiguous column-major columns of `T`, each dispatched through
/// [`crate::simd::SmallKernels::axpy`].
///
/// Bit-identical to the scalar oracle: the reference row chain for row `r`
/// is `acc = fma(T[r, l], s_l, acc)` for `l = r..i` ascending (seeded at
/// zero, `s_l` the `-tau_i * gram` column seeds). The column sweep visits
/// `l` ascending and updates rows `0..=l`, so row `r` receives exactly the
/// updates `l = r..i` in the same order; the fused axpy computes
/// `fma(s_l, T[r, l], acc)`, whose product commutes bitwise for every
/// finite value (and hardware FMA rounds like the libm `fma` the default
/// codegen uses). Columns with `tau == 0` contribute `fma(s_l, 0, acc)`
/// terms exactly as the oracle's chains do.
fn assemble_t_simd<T: Scalar>(
    gram: &[T],
    tau: &[T],
    k: usize,
    backend: crate::simd::Backend,
) -> Matrix<T> {
    let sk = T::small_kernels(backend);
    let mut t = Matrix::<T>::zeros(k, k);
    // Dirty arena scratch: `seed[..i]` and `acc[..i]` are fully written
    // before any read in each column pass.
    let mut scratch = crate::arena::take_dirty::<T>(2 * k);
    let (seed, acc) = scratch.split_at_mut(k);
    for i in 0..k {
        let ti = tau[i];
        t[(i, i)] = ti;
        if ti == T::ZERO {
            continue;
        }
        for (j, s) in seed[..i].iter_mut().enumerate() {
            *s = -ti * gram[j * k + i];
        }
        for a in acc[..i].iter_mut() {
            *a = T::ZERO;
        }
        for (l, &sl) in seed[..i].iter().enumerate() {
            // Column `l` of `T` holds the chain coefficients for rows
            // `0..l` plus `tau_l` on the diagonal — contiguous in the
            // column-major storage.
            let col = &t.col(l)[..=l];
            // SAFETY: the kernel table came from the caller's backend,
            // which is available on this CPU by construction.
            unsafe { (sk.axpy)(sl, col, &mut acc[..=l]) };
        }
        let coli = t.col_mut(i);
        coli[..i].copy_from_slice(&acc[..i]);
    }
    t
}

/// Per-tier `#[target_feature]` instantiations of [`gram_pass`]: the body
/// is `#[inline(always)]`, so each wrapper compiles it with its ISA and the
/// autovectorizer does the rest.
macro_rules! gram_pass_tier {
    ($name:ident, $($feat:literal),+) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature($(enable = $feat),+)]
        unsafe fn $name<T: Scalar>(
            at: &[T],
            rows: usize,
            width: usize,
            tri_block: usize,
            k: usize,
            gram: &mut [T],
        ) {
            gram_pass(at, rows, width, tri_block, k, gram);
        }
    };
}

gram_pass_tier!(gram_pass_x86_fma, "fma");
gram_pass_tier!(gram_pass_x86_avx2, "avx2", "fma");
gram_pass_tier!(gram_pass_x86_avx512, "avx512f", "avx2", "fma");

/// One streaming pass building `gram[j * k + i]` (for `j < i`) as the
/// reference [`larft`] dot chain over columns `j` and `i`.
#[inline(always)]
fn gram_pass<T: Scalar>(
    at: &[T],
    rows: usize,
    width: usize,
    tri_block: usize,
    k: usize,
    gram: &mut [T],
) {
    for r in 0..rows {
        let row = &at[r * width..r * width + width];
        let loc = if tri_block > 0 { r % tri_block } else { 0 };
        // Product terms: pairs (j, i) with i < r contribute A(r,j)*A(r,i),
        // appended in ascending r to each independent accumulator.
        for i in loc..r.min(k) {
            let vi = row[i];
            for j in loc..i {
                gram[j * k + i] = row[j].mul_add(vi, gram[j * k + i]);
            }
        }
        // Seed terms (the reference chain's `v_j[i] * 1` start at row i):
        // unrestricted so the seed is an exact copy even inside a triangle.
        if r < k {
            for j in 0..r {
                gram[j * k + r] = row[j];
            }
        }
    }
}

/// Assemble the upper-triangular `T` from the Gram accumulators, statement
/// for statement as the tail of [`larft`].
fn assemble_t<T: Scalar>(gram: &[T], tau: &[T], k: usize) -> Matrix<T> {
    let mut t = Matrix::<T>::zeros(k, k);
    for i in 0..k {
        let ti = tau[i];
        t[(i, i)] = ti;
        if ti == T::ZERO {
            continue;
        }
        for j in 0..i {
            t[(j, i)] = -ti * gram[j * k + i];
        }
        for row in 0..i {
            let mut acc = T::ZERO;
            for l in row..i {
                acc = t[(row, l)].mul_add(t[(l, i)], acc);
            }
            t[(row, i)] = acc;
        }
    }
    t
}

/// [`extract_v`] from a pre-transposed factored panel
/// (`at[r * width + j] == A(r, j)`): unit diagonal, zeros above, tails below.
pub fn extract_v_transposed<T: Scalar>(at: &[T], rows: usize, width: usize, k: usize) -> Matrix<T> {
    debug_assert_eq!(at.len(), rows * width);
    debug_assert!(k <= width);
    let mut v = Matrix::<T>::zeros(rows, k);
    for j in 0..k {
        let col = v.col_mut(j);
        col[j] = T::ONE;
        for (i, x) in col.iter_mut().enumerate().skip(j + 1) {
            *x = at[i * width + j];
        }
    }
    v
}

/// Apply the block reflector from the left (LAPACK `larfb`, forward
/// columnwise): `C = (I - V T' V^T) C` where `T' = T^T` when
/// `transpose == true` (i.e. applying `Q^T`) and `T' = T` otherwise.
pub fn larfb_left<T: Scalar>(
    v: MatRef<'_, T>,
    t: MatRef<'_, T>,
    transpose: bool,
    mut c: MatMut<'_, T>,
) {
    let k = t.cols();
    let n = c.cols();
    debug_assert_eq!(v.rows(), c.rows());
    if n == 0 || k == 0 {
        return;
    }
    // Both intermediates are written with beta == 0 GEMMs, which fully
    // define every element, so dirty arena scratch is safe and bit-exact.
    let mut wbuf = crate::arena::take_dirty::<T>(k * n);
    let mut twbuf = crate::arena::take_dirty::<T>(k * n);
    // W = V^T C  (k x n)
    let mut w = MatMut::from_parts(&mut wbuf, k, n, k);
    gemm(
        Trans::Yes,
        Trans::No,
        T::ONE,
        v,
        c.as_ref(),
        T::ZERO,
        w.rb_mut(),
    );
    // W = op(T) W  — T is k x k upper triangular; apply densely (k is small).
    let mut tw = MatMut::from_parts(&mut twbuf, k, n, k);
    gemm(
        if transpose { Trans::Yes } else { Trans::No },
        Trans::No,
        T::ONE,
        t,
        w.as_ref(),
        T::ZERO,
        tw.rb_mut(),
    );
    // C -= V W
    gemm(
        Trans::No,
        Trans::No,
        -T::ONE,
        v,
        tw.as_ref(),
        T::ONE,
        c.rb_mut(),
    );
}

/// One tile's explicit `V` (`rows x k`, unit lower-trapezoidal) packed
/// for [`larfb_left_in_place`]: `V^T` as the A operand of `W = V^T C`
/// and `V` as the A operand of `C -= V W`, both in the A-panel layout of
/// the micro-kernel `kern` recorded with them (see
/// [`crate::blas3::PackedA`]). Packed once, the pair serves every column
/// block the tile is applied to; recording the kernel keeps pack and
/// micro-kernel in agreement even if the dispatched backend changes
/// while the pack lives.
#[derive(Clone, Copy)]
pub struct PackedV<'a, T: Scalar> {
    v: MatRef<'a, T>,
    kern: GemmKernel<T>,
    vt: PackedA<'a, T>,
    vp: PackedA<'a, T>,
}

impl<'a, T: Scalar> PackedV<'a, T> {
    /// Elements of the pack of a `rows x k` `V` for `kern`.
    pub fn len(rows: usize, k: usize, kern: &GemmKernel<T>) -> usize {
        PackedA::<T>::len(k, rows, kern.mr) + PackedA::<T>::len(rows, k, kern.mr)
    }

    /// Pack `v` for `kern` into the front of `buf` (at least
    /// [`Self::len`] elements; stale contents are fine).
    pub fn pack(v: MatRef<'a, T>, kern: GemmKernel<T>, buf: &'a mut [T]) -> Self {
        let (rows, k) = (v.rows(), v.cols());
        let (bt, bv) = buf.split_at_mut(PackedA::<T>::len(k, rows, kern.mr));
        PackedV {
            v,
            kern,
            vt: PackedA::pack(Trans::Yes, v, kern.mr, bt),
            vp: PackedA::pack(Trans::No, v, kern.mr, bv),
        }
    }

    /// The explicit `V` the pack was made from.
    pub fn v(&self) -> MatRef<'a, T> {
        self.v
    }
}

/// [`larfb_left`] in place on the `rows x wc` region of `c` at `(r0, c0)`:
/// `C = (I - V op(T) V^T) C` with `V` from a [`PackedV`]. `W = V^T C`
/// reads `C` straight from the matrix through the strided micro-kernel,
/// `W = op(T) W` is a plain [`gemm`] on scratch, and `C -= V W` writes the
/// region directly, so `C` is never copied. Each GEMM keeps [`gemm`]'s
/// `KC` split and `alpha`/`beta` handling, so the result is bit-identical
/// to [`larfb_left`] on a copy of the region. A product too small for
/// the packed path ([`crate::blas3::takes_packed_path`]) runs
/// [`larfb_left`] itself on a copy, because [`gemm`]'s small-product loop
/// has different arithmetic.
///
/// # Safety
/// The region must belong exclusively to the calling block (the
/// [`MatPtr`] contract).
pub unsafe fn larfb_left_in_place<T: Scalar>(
    pv: &PackedV<'_, T>,
    t: MatRef<'_, T>,
    transpose: bool,
    c: MatPtr<T>,
    (r0, c0): (usize, usize),
    wc: usize,
) {
    let (rows, k) = (pv.v.rows(), t.cols());
    debug_assert_eq!(pv.v.cols(), k);
    if wc == 0 || k == 0 {
        return;
    }
    if !(takes_packed_path(k, wc, rows) && takes_packed_path(rows, wc, k)) {
        // Dirty arena scratch: load_tile overwrites every element.
        let mut cbuf = crate::arena::take_dirty::<T>(rows * wc);
        c.load_tile(r0, c0, rows, wc, &mut cbuf);
        larfb_left(
            pv.v,
            t,
            transpose,
            MatMut::from_parts(&mut cbuf, rows, wc, rows),
        );
        c.store_tile(r0, c0, rows, wc, &cbuf);
        return;
    }
    // Both intermediates are written with beta == 0, which defines every
    // element, so dirty arena scratch is safe and bit-exact.
    let mut wbuf = crate::arena::take_dirty::<T>(k * wc);
    let mut twbuf = crate::arena::take_dirty::<T>(k * wc);
    // W = V^T C  (k x wc), C read in place.
    let w = MatPtr::from_raw_parts(wbuf.as_mut_ptr(), k, wc, k);
    gemm_in_place(
        &pv.kern,
        T::ONE,
        &pv.vt,
        c,
        (r0, c0),
        T::ZERO,
        w,
        (0, 0),
        wc,
    );
    // W = op(T) W.
    gemm(
        if transpose { Trans::Yes } else { Trans::No },
        Trans::No,
        T::ONE,
        t,
        MatRef::from_parts(&wbuf, k, wc, k),
        T::ZERO,
        MatMut::from_parts(&mut twbuf, k, wc, k),
    );
    // C -= V W, written in place.
    let tw = MatPtr::from_raw_parts(twbuf.as_mut_ptr(), k, wc, k);
    gemm_in_place(
        &pv.kern,
        -T::ONE,
        &pv.vp,
        tw,
        (0, 0),
        T::ONE,
        c,
        (r0, c0),
        wc,
    );
}

/// Blocked Householder QR factorization in place (LAPACK `geqrf`).
///
/// Returns the `tau` array of length `min(m, n)`. On exit `a` holds `R` in
/// its upper triangle and the reflector tails below the diagonal.
pub fn geqrf<T: Scalar>(a: &mut Matrix<T>, nb: usize) -> Vec<T> {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let mut tau = vec![T::ZERO; k];
    let nb = nb.max(1);
    let mut j = 0;
    while j < k {
        let jb = nb.min(k - j);
        // BLAS2 panel factorization of A[j.., j..j+jb].
        geqr2(a.view_mut(j, j, m - j, jb), &mut tau[j..j + jb]);
        if j + jb < n {
            // BLAS3 trailing update via the compact WY form.
            let (v, t) = {
                let panel = a.view(j, j, m - j, jb);
                let v = extract_v(panel, jb);
                let t = larft(v.as_ref(), &tau[j..j + jb]);
                (v, t)
            };
            let trailing = a.view_mut(j, j + jb, m - j, n - j - jb);
            larfb_left(v.as_ref(), t.as_ref(), true, trailing);
        }
        j += jb;
    }
    tau
}

/// Form the explicit `m x k` orthogonal factor from a [`geqrf`] result
/// (LAPACK `orgqr`), applying reflector blocks in reverse order to `[I; 0]`.
pub fn orgqr<T: Scalar>(a: &Matrix<T>, tau: &[T], k: usize, nb: usize) -> Matrix<T> {
    let m = a.rows();
    assert!(k <= tau.len() && k <= m);
    let mut q = Matrix::<T>::zeros(m, k);
    for d in 0..k {
        q[(d, d)] = T::ONE;
    }
    let nb = nb.max(1);
    // Block starts, processed last-to-first.
    let mut starts: Vec<usize> = (0..k).step_by(nb).collect();
    starts.reverse();
    for &j in &starts {
        let jb = nb.min(k - j);
        let panel = a.view(j, j, m - j, jb);
        let v = extract_v(panel, jb);
        let t = larft(v.as_ref(), &tau[j..j + jb]);
        let sub = q.view_mut(j, j, m - j, k - j);
        larfb_left(v.as_ref(), t.as_ref(), false, sub);
    }
    q
}

/// Apply `Q` or `Q^T` from a [`geqrf`] factorization to `c` in place
/// (LAPACK `ormqr`, side = left).
pub fn ormqr<T: Scalar>(a: &Matrix<T>, tau: &[T], transpose: bool, c: &mut Matrix<T>, nb: usize) {
    let m = a.rows();
    assert_eq!(c.rows(), m);
    let k = tau.len();
    let n = c.cols();
    let nb = nb.max(1);
    let mut starts: Vec<usize> = (0..k).step_by(nb).collect();
    if !transpose {
        starts.reverse();
    }
    for &j in &starts {
        let jb = nb.min(k - j);
        let panel = a.view(j, j, m - j, jb);
        let v = extract_v(panel, jb);
        let t = larft(v.as_ref(), &tau[j..j + jb]);
        let sub = c.view_mut(j, 0, m - j, n);
        larfb_left(v.as_ref(), t.as_ref(), transpose, sub);
    }
}

/// Solve the least-squares problem `min ||A x - b||` via blocked QR.
/// Returns `x` of length `n`. `A` is consumed (factored in place).
pub fn least_squares<T: Scalar>(mut a: Matrix<T>, b: &[T]) -> Vec<T> {
    let m = a.rows();
    let n = a.cols();
    assert!(m >= n, "least_squares requires m >= n");
    assert_eq!(b.len(), m);
    let tau = geqrf(&mut a, DEFAULT_NB);
    let mut c = Matrix::from_fn(m, 1, |i, _| b[i]);
    ormqr(&a, &tau, true, &mut c, DEFAULT_NB);
    let mut x: Vec<T> = (0..n).map(|i| c[(i, 0)]).collect();
    crate::blas2::trsv_upper(a.view(0, 0, n, n), &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::householder::{geqr2 as unblocked, org2r};

    fn test_matrix(m: usize, n: usize) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| {
            (((i * 37 + j * 11 + 3) % 29) as f64 - 14.0) / 9.0 + if i == j { 2.5 } else { 0.0 }
        })
    }

    #[test]
    fn blocked_matches_unblocked_r() {
        let a = test_matrix(40, 17);
        let mut blocked = a.clone();
        let tau_b = geqrf(&mut blocked, 5);
        let mut unb = a.clone();
        let mut tau_u = vec![0.0; 17];
        unblocked(unb.as_mut(), &mut tau_u);
        // R is unique up to sign; larfg's deterministic sign choice makes the
        // two factorizations produce identical R entries here.
        for j in 0..17 {
            for i in 0..=j {
                assert!(
                    (blocked[(i, j)] - unb[(i, j)]).abs() < 1e-10,
                    "R mismatch at ({i},{j}): {} vs {}",
                    blocked[(i, j)],
                    unb[(i, j)]
                );
            }
        }
        assert_eq!(tau_b.len(), tau_u.len());
    }

    #[test]
    fn geqrf_reconstructs() {
        for (m, n, nb) in [(30, 12, 4), (12, 12, 5), (64, 16, 16), (9, 4, 100)] {
            let a = test_matrix(m, n);
            let mut f = a.clone();
            let tau = geqrf(&mut f, nb);
            let q = orgqr(&f, &tau, n.min(m), nb);
            let r = f.upper_triangular();
            let mut qr = Matrix::<f64>::zeros(m, n);
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                q.as_ref(),
                r.as_ref(),
                0.0,
                qr.as_mut(),
            );
            for i in 0..m {
                for j in 0..n {
                    assert!(
                        (qr[(i, j)] - a[(i, j)]).abs() < 1e-10,
                        "({m},{n},{nb}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn orgqr_matches_org2r() {
        let a = test_matrix(25, 10);
        let mut f1 = a.clone();
        let mut tau1 = vec![0.0; 10];
        unblocked(f1.as_mut(), &mut tau1);
        let q_unb = org2r(&f1, &tau1, 10);

        let mut f2 = a.clone();
        let tau2 = geqrf(&mut f2, 3);
        let q_blk = orgqr(&f2, &tau2, 10, 3);
        for i in 0..25 {
            for j in 0..10 {
                assert!((q_unb[(i, j)] - q_blk[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn ormqr_transpose_gives_r() {
        let a = test_matrix(31, 9);
        let mut f = a.clone();
        let tau = geqrf(&mut f, 4);
        let mut c = a.clone();
        ormqr(&f, &tau, true, &mut c, 4);
        for j in 0..9 {
            for i in 0..31 {
                let want = if i <= j { f[(i, j)] } else { 0.0 };
                assert!((c[(i, j)] - want).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn ormqr_round_trip() {
        let a = test_matrix(20, 8);
        let mut f = a.clone();
        let tau = geqrf(&mut f, 8);
        let c0 = test_matrix(20, 5);
        let mut c = c0.clone();
        ormqr(&f, &tau, true, &mut c, 8);
        ormqr(&f, &tau, false, &mut c, 8);
        for i in 0..20 {
            for j in 0..5 {
                assert!((c[(i, j)] - c0[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn larft_consistent_with_sequential_application() {
        // (I - V T V^T) must equal H_0 H_1 ... H_{k-1}.
        let a = test_matrix(12, 4);
        let mut f = a.clone();
        let mut tau = vec![0.0; 4];
        unblocked(f.as_mut(), &mut tau);
        let v = extract_v(f.view(0, 0, 12, 4), 4);
        let t = larft(v.as_ref(), &tau);
        // Apply both to the identity and compare.
        let mut c1 = Matrix::<f64>::eye(12, 12);
        larfb_left(v.as_ref(), t.as_ref(), true, c1.as_mut());
        let mut c2 = Matrix::<f64>::eye(12, 12);
        crate::householder::apply_q2(f.as_ref(), &tau, true, c2.as_mut());
        for i in 0..12 {
            for j in 0..12 {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-11, "({i},{j})");
            }
        }
    }

    #[test]
    fn transposed_factor_kernels_match_reference_bitwise() {
        for (m, n) in [(24usize, 6usize), (16, 16), (9, 4), (7, 1), (40, 12)] {
            let a = test_matrix(m, n);
            let k = m.min(n);
            // Reference pipeline.
            let mut f = a.clone();
            let mut tau_ref = vec![0.0; k];
            unblocked(f.as_mut(), &mut tau_ref);
            let v_ref = extract_v(f.view(0, 0, m, n), k);
            let t_ref = larft(v_ref.as_ref(), &tau_ref);
            // Transposed pipeline on the row-major packing of the same data.
            let mut at = vec![0.0f64; m * n];
            for j in 0..n {
                for i in 0..m {
                    at[i * n + j] = a[(i, j)];
                }
            }
            let mut tau = vec![0.0; k];
            let mut gram = vec![f64::NAN; k * k];
            crate::householder::geqr2_gram_transposed(&mut at, m, n, 0, &mut tau, &mut gram);
            assert_eq!(tau, tau_ref, "{m}x{n} tau");
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(
                        at[i * n + j].to_bits(),
                        f[(i, j)].to_bits(),
                        "{m}x{n} factored ({i},{j})"
                    );
                }
            }
            assert_eq!(larft_transposed(&at, m, n, 0, &tau), t_ref, "{m}x{n} T");
            assert_eq!(larft_from_gram(&gram, &tau), t_ref, "{m}x{n} fused-gram T");
            assert_eq!(extract_v_transposed(&at, m, n, k), v_ref, "{m}x{n} V");
        }
    }

    #[test]
    fn simd_t_assembly_matches_scalar_oracle_bitwise() {
        // The column-sweep SIMD assembly must reproduce the scalar row-chain
        // oracle bit for bit on every backend this host exposes, including
        // columns with a zero tau (skipped reflectors).
        for &k in &[1usize, 2, 3, 5, 8, 13, 17, 32] {
            let g = crate::generate::uniform::<f64>(k, k, 0x7a5 + k as u64);
            let gram: Vec<f64> = (0..k * k).map(|idx| g[(idx / k, idx % k)]).collect();
            let tv = crate::generate::uniform::<f64>(k, 1, 0x1b3 + k as u64);
            let mut tau: Vec<f64> = (0..k).map(|i| 1.0 + tv[(i, 0)]).collect();
            if k > 2 {
                tau[k / 2] = 0.0;
                tau[k - 1] = 0.0;
            }
            let want = assemble_t(&gram, &tau, k);
            for backend in crate::simd::Backend::available() {
                let got = assemble_t_simd(&gram, &tau, k, backend);
                assert_eq!(got, want, "k={k} backend={}", backend.name());
            }
        }
    }

    #[test]
    fn transposed_tri_block_skips_match_dense_iteration() {
        // A stack of upper-triangular w x w blocks (the factor_tree layout):
        // skipping the structural zeros must agree with the dense iteration
        // on every value (zero signs may differ; f64 == treats them equal).
        let (w, blocks) = (6usize, 4usize);
        let rows = w * blocks;
        let mut at = vec![0.0f64; rows * w];
        for b in 0..blocks {
            for i in 0..w {
                for j in i..w {
                    at[(b * w + i) * w + j] = (((b * 31 + i * 7 + j * 3 + 1) % 13) as f64 - 6.0)
                        / 3.0
                        + if i == j { 2.0 } else { 0.0 };
                }
            }
        }
        let mut at_dense = at.clone();
        let (mut tau_s, mut tau_d) = (vec![0.0; w], vec![0.0; w]);
        crate::householder::geqr2_transposed(&mut at, rows, w, w, &mut tau_s);
        crate::householder::geqr2_transposed(&mut at_dense, rows, w, 0, &mut tau_d);
        assert_eq!(tau_s, tau_d);
        assert_eq!(at, at_dense);
        // Structural zeros survived as exact zeros.
        for b in 1..blocks {
            for i in 0..w {
                for j in 0..i {
                    assert_eq!(at[(b * w + i) * w + j], 0.0, "block {b} ({i},{j})");
                }
            }
        }
        let t_s = larft_transposed(&at, rows, w, w, &tau_s);
        let t_d = larft_transposed(&at_dense, rows, w, 0, &tau_d);
        assert_eq!(t_s, t_d);
    }

    #[test]
    fn least_squares_recovers_planted_solution() {
        // Build b = A x_true exactly; LS must recover x_true.
        let a = test_matrix(50, 6);
        let x_true: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let mut b = vec![0.0; 50];
        for j in 0..6 {
            for i in 0..50 {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let x = least_squares(a, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
