//! Elementary Householder reflectors and unblocked QR (LAPACK `larfg`,
//! `larf`, `geqr2`, `org2r` analogues).
//!
//! These are the BLAS2 building blocks that the paper's `factor` and
//! `factor_tree` kernels run inside fast memory, and that the blocked
//! Householder baselines run per panel.

use crate::blas1::nrm2;
use crate::error::DenseError;
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::scalar::Scalar;

/// Generate an elementary reflector `H = I - tau * v * v^T` such that
/// `H * x = (beta, 0, ..., 0)^T` with `|beta| = ||x||`.
///
/// On input `x` is the full vector (length >= 1). On output `x[0] = beta` and
/// `x[1..]` holds the reflector tail `v[1..]` (`v[0] == 1` is implicit).
/// Returns `tau` (zero when `x[1..]` is already zero, making `H = I`).
///
/// Columns so tiny that `beta` would be subnormal are rescaled by
/// `1/safe_min` before the reflector is formed and `beta` unscaled at the
/// end, exactly as LAPACK `dlarfg` does — without this, `tau` and the tail
/// divide by a number that has already lost most of its bits and the
/// reflector silently stops being orthogonal.
pub fn larfg<T: Scalar>(x: &mut [T]) -> T {
    let n = x.len();
    assert!(n >= 1, "larfg needs a non-empty vector");
    if n == 1 {
        return T::ZERO;
    }
    let mut alpha = x[0];
    let mut xnorm = nrm2(&x[1..]);
    if xnorm == T::ZERO {
        return T::ZERO;
    }
    // beta = -sign(alpha) * ||x||, the LAPACK choice that avoids cancellation.
    let mut beta = -alpha.sign() * alpha.hypot(xnorm);
    let safmin = T::safe_min();
    let mut knt = 0u32;
    if beta.abs() < safmin {
        // |beta| is subnormal (or dangerously close): scale the whole column
        // up until it is safely normal. At most a couple of iterations —
        // 1/safmin spans ~292 decades for f64.
        let rsafmn = T::ONE / safmin;
        while beta.abs() < safmin && knt < 20 {
            knt += 1;
            for v in &mut x[1..] {
                *v *= rsafmn;
            }
            beta *= rsafmn;
            alpha *= rsafmn;
        }
        // Recompute at the well-scaled magnitude.
        xnorm = nrm2(&x[1..]);
        beta = -alpha.sign() * alpha.hypot(xnorm);
    }
    let tau = (beta - alpha) / beta;
    let inv = T::ONE / (alpha - beta);
    for v in &mut x[1..] {
        *v *= inv;
    }
    // Undo the scaling: the tail and tau are scale-invariant, beta is not.
    for _ in 0..knt {
        beta *= safmin;
    }
    x[0] = beta;
    tau
}

/// Apply `H = I - tau * v * v^T` from the left to `c`: `C = H * C`.
///
/// `v` has explicit unit first element NOT stored: `v_storage` is the tail
/// `v[1..]` and the reflector acts on all `c.rows() == v_storage.len() + 1`
/// rows. `work` is resized to `c.cols()`.
///
/// A reflector whose length disagrees with `c.rows()` is a checked error
/// (not a `debug_assert`): in release builds a silent mismatch would read
/// the wrong rows and corrupt the factorization.
pub fn larf_left<T: Scalar>(
    v_tail: &[T],
    tau: T,
    mut c: MatMut<'_, T>,
    work: &mut Vec<T>,
) -> Result<(), DenseError> {
    let m = c.rows();
    let n = c.cols();
    if v_tail.len() + 1 != m {
        return Err(DenseError::ShapeMismatch {
            context: "larf_left: reflector length (tail + 1) vs C rows",
            expected: m,
            got: v_tail.len() + 1,
        });
    }
    if tau == T::ZERO {
        return Ok(());
    }
    work.clear();
    work.resize(n, T::ZERO);
    // w = C^T v  (v[0] == 1)
    for j in 0..n {
        let col = c.col(j);
        let mut acc = col[0];
        for (&ci, &vi) in col[1..].iter().zip(v_tail) {
            acc = ci.mul_add(vi, acc);
        }
        work[j] = acc;
    }
    // C -= tau * v * w^T
    for j in 0..n {
        let twj = tau * work[j];
        let col = c.col_mut(j);
        col[0] -= twj;
        for (ci, &vi) in col[1..].iter_mut().zip(v_tail) {
            *ci = (-twj).mul_add(vi, *ci);
        }
    }
    Ok(())
}

/// Unblocked Householder QR (LAPACK `geqr2`): factor `a` in place.
///
/// On exit the upper triangle of `a` holds `R` and the strict lower triangle
/// of column `j` holds the tail of reflector `v_j`; `tau[j]` receives the
/// scalar factors. Works for any `rows >= 1`, `cols >= 0` (wide matrices
/// factor the leading `min(m, n)` columns' reflectors).
pub fn geqr2<T: Scalar>(mut a: MatMut<'_, T>, tau: &mut [T]) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    assert!(tau.len() >= k, "tau too short: {} < {}", tau.len(), k);
    let mut work = Vec::new();
    for j in 0..k {
        // Generate reflector from A[j.., j].
        let t = {
            let col = &mut a.col_mut(j)[j..];
            larfg(col)
        };
        tau[j] = t;
        if j + 1 < n && t != T::ZERO {
            // Apply to the trailing columns A[j.., j+1..].
            // Copy the reflector tail out to appease the borrow checker; the
            // tails are tiny (these are cache-resident panel columns).
            let v_tail: Vec<T> = a.col(j)[j + 1..].to_vec();
            let trailing = a.rb_mut().submatrix_mut(j, j + 1, m - j, n - j - 1);
            larf_left(&v_tail, t, trailing, &mut work)
                .expect("geqr2: reflector length matches trailing block by construction");
        }
    }
}

/// Unblocked Householder QR over a **pre-transposed** panel — the paper's
/// strategy-4 factor micro-kernel, bit-identical to [`geqr2`].
///
/// `at` holds the panel row-major: `at[r * width + j] == A(r, j)`, so every
/// trailing-matrix row is contiguous and the `A^T u` products / rank-1
/// updates run `width`-wide over unit-stride memory with independent
/// accumulators instead of `larf_left`'s one-column-at-a-time serial
/// `mul_add` chains. The arithmetic is a strict reordering of *independent*
/// accumulations: every per-element operation sequence matches the
/// reference (`larfg` is called verbatim on a gathered pivot column; the
/// per-column dot/update chains of `larf_left` ascend rows in the same
/// order with the same `mul_add`s), so the results are bitwise equal.
///
/// `tri_block > 0` declares the stacked-triangles structure of the
/// `factor_tree` stage: row `r` is known to be structurally zero in columns
/// `< r % tri_block` (each `tri_block`-row block is upper triangular).
/// Those rows are skipped in the trailing update and the skipped terms are
/// exact `±0.0` products, which can only affect the sign of zeros (and the
/// structure is preserved by the updates themselves). Pass `0` for a dense
/// panel — then no term is skipped and the result is bit-exact including
/// zero signs.
///
/// `tau` must hold `min(rows, width)` entries; scratch comes from the
/// workspace arena internally.
pub fn geqr2_transposed<T: Scalar>(
    at: &mut [T],
    rows: usize,
    width: usize,
    tri_block: usize,
    tau: &mut [T],
) {
    factor_transposed_dispatch::<T, false>(at, rows, width, tri_block, tau, &mut []);
}

/// [`geqr2_transposed`] fused with the `V^T V` Gram accumulation that
/// [`crate::blocked::larft_transposed`] needs: the Gram chains for reflector
/// `j` are built inside reflector `j`'s own `A^T u` sweep, where the row is
/// already in cache, instead of re-streaming the factored panel afterwards.
/// `gram` must hold `k * k` entries (`k = min(rows, width)`, dirty is fine);
/// on exit pass it to [`crate::blocked::larft_from_gram`] for the exact `T`
/// the unfused pipeline would have produced.
pub fn geqr2_gram_transposed<T: Scalar>(
    at: &mut [T],
    rows: usize,
    width: usize,
    tri_block: usize,
    tau: &mut [T],
    gram: &mut [T],
) {
    let k = rows.min(width);
    assert!(
        gram.len() >= k * k,
        "gram too short: {} < {}",
        gram.len(),
        k * k
    );
    factor_transposed_dispatch::<T, true>(at, rows, width, tri_block, tau, gram);
}

/// Column-block width of [`geqrf_gram_transposed`]: one block is factored
/// by the unblocked sweep inside a `rows x 8` strip.
pub const FACTOR_BLOCK: usize = 8;

/// Packed-panel size, in bytes, up to which [`geqrf_gram_transposed`]
/// runs the unblocked sweep directly for element type `T`: a panel this
/// small stays in L1 through all of its reflectors, so blocking only adds
/// passes. Each budget is set from its type's measured crossover
/// (DESIGN.md §9): f64 panels of 32 KB and less ran slower blocked before
/// the base case split its dots in two chains, and f32 panels of 40 KB
/// and less ran no faster blocked at width 32, while 48 KB and more ran
/// faster at widths 16 and 32.
pub const fn factor_l1_bytes<T>() -> usize {
    match std::mem::size_of::<T>() {
        4 => 40 * 1024,
        _ => 32 * 1024,
    }
}

/// Column-blocked [`geqr2_gram_transposed`] over a dense pre-transposed
/// panel (LAPACK `geqrf` over the strategy-4 sweep), with the same outputs:
/// the factored panel in `at`, `tau`, and the `V^T V` Gram chains for
/// [`crate::blocked::larft_from_gram`].
///
/// A panel within its type's [`factor_l1_bytes`], one no wider than
/// [`FACTOR_BLOCK`], or one with fewer rows than columns goes straight to
/// the unblocked sweep and is bit-identical to [`geqr2`]. A larger panel
/// is factored [`FACTOR_BLOCK`] columns at a time:
///
/// 1. the block's rows are copied into an L1-resident row-major strip and
///    factored there by the unblocked sweep (the base case), which also
///    yields the block's own Gram entries and `tau`s. Its dot pass runs
///    two chains per lane (`strip_dot_rows`), so the base case is not
///    bound by one FMA latency per row;
/// 2. one register-blocked pass over the rows (`block_dot_rows`) forms
///    `W = V_b^T C` for the trailing columns `C` and the cross-Gram
///    `V_<^T V_b` against every earlier reflector;
/// 3. a second pass (`block_update_rows`) applies `C -= V_b (T_b^T W)`,
///    with `T_b` assembled from the block's Gram entries.
///
/// Both passes go through the rows in L1-sized chunks, and the strip
/// copies ride along: the first pass stores the block's tails back into
/// `at`, and the second gathers the next block's strip as its rows become
/// final.
///
/// The trailing update is reassociated blockwise and the base case's dots
/// are split in two chains, so blocked panels agree with [`geqr2`] to
/// rounding, not bitwise. Every backend runs the same per-element
/// `mul_add` chains in the same order, so the result is bit-identical
/// across backends, as for the unblocked sweep.
pub fn geqrf_gram_transposed<T: Scalar>(
    at: &mut [T],
    rows: usize,
    width: usize,
    tau: &mut [T],
    gram: &mut [T],
) {
    if rows < width
        || width <= FACTOR_BLOCK
        || rows * width * std::mem::size_of::<T>() <= factor_l1_bytes::<T>()
    {
        return geqr2_gram_transposed(at, rows, width, 0, tau, gram);
    }
    assert_eq!(at.len(), rows * width);
    let k = width;
    assert!(tau.len() >= k, "tau too short: {} < {}", tau.len(), k);
    assert!(
        gram.len() >= k * k,
        "gram too short: {} < {}",
        gram.len(),
        k * k
    );
    let kern = T::factor_kernels(crate::simd::active());
    let nbm = FACTOR_BLOCK;
    // One dirty scratch for the two strips (this block's and the next
    // one's), the pass accumulators and the block's Gram; every element
    // is written before it is read.
    let mut scratch = crate::arena::take_dirty::<T>(2 * rows * nbm + nbm * width + nbm * nbm);
    let (strips, rest) = scratch.split_at_mut(2 * rows * nbm);
    let (mut strip, mut next) = strips.split_at_mut(rows * nbm);
    let (acc, gb) = rest.split_at_mut(nbm * width);
    // The first block's strip is gathered here; every later one by the
    // update pass of the block before it.
    copy_block(at, width, strip, nbm, nbm, rows);
    for c0 in (0..width).step_by(nbm) {
        let nb = nbm.min(width - c0);
        let m = rows - c0;
        let v = &mut strip[..m * nb];
        let gb = &mut gb[..nb * nb];
        factor_transposed_core::<T, true, true>(v, m, nb, 0, &mut tau[c0..c0 + nb], gb, kern);
        // Store the block's first rows (its R), then make the strip the
        // explicit V_b (unit diagonal, zeros above) the two passes stream;
        // the dot pass stores the tails below.
        copy_block(v, nb, &mut at[c0 * width + c0..], width, nb, nb);
        for (r, s) in v.chunks_exact_mut(nb).take(nb).enumerate() {
            s[r] = T::ONE;
            s[r + 1..].fill(T::ZERO);
        }
        for a in 0..nb {
            for b in a + 1..nb {
                gram[(c0 + a) * k + c0 + b] = gb[a * nb + b];
            }
        }
        // SAFETY: the slice shapes meet the scalar `block_dot_rows`
        // contract and the kernel table only holds available backends.
        unsafe { (kern.block_dot_rows)(at, width, rows, c0, nb, v, acc) };
        for i in 0..nb {
            for jj in 0..c0 {
                gram[jj * k + c0 + i] = acc[i * width + jj];
            }
        }
        if c0 + nb < width {
            let tb = crate::blocked::larft_from_gram(gb, &tau[c0..c0 + nb]);
            // SAFETY: as for the dot pass above; `next` holds the next
            // block's `(rows - c0 - nb) x min(8, width - c0 - nb)` strip.
            unsafe {
                (kern.block_update_rows)(at, width, rows, c0, nb, v, tb.as_slice(), acc, next)
            };
            std::mem::swap(&mut strip, &mut next);
        }
    }
}

/// Copy `rows` row segments of `nb` elements from `src` (row pitch
/// `src_pitch`) to `dst` (row pitch `dst_pitch`). Full blocks copy as
/// fixed-size arrays: a per-row `copy_from_slice` of a runtime length
/// becomes a `memcpy` call per row.
#[inline(always)]
fn copy_block<T: Copy>(
    src: &[T],
    src_pitch: usize,
    dst: &mut [T],
    dst_pitch: usize,
    nb: usize,
    rows: usize,
) {
    const N: usize = FACTOR_BLOCK;
    for r in 0..rows {
        let (s, d) = (&src[r * src_pitch..], &mut dst[r * dst_pitch..]);
        if nb == N {
            let s: &[T; N] = s[..N].try_into().expect("full block");
            let d: &mut [T; N] = (&mut d[..N]).try_into().expect("full block");
            *d = *s;
        } else {
            d[..nb].copy_from_slice(&s[..nb]);
        }
    }
}

/// One register block of the blocked factor's two passes: `CW` adjacent
/// columns of every row. The scalar block ([`ScalarCols`]) is the oracle;
/// the x86 backends use vector blocks (`crate::simd::VecCols`). Both run
/// each entry as the same `mul_add` chain, so they agree bitwise.
pub(crate) trait BlockCols<T: Scalar> {
    /// Columns per block.
    const CW: usize;
    /// `acc[i * width + l + c] += sum_r v[r][i] * a[r][l + c]` for `c < CW`,
    /// continuing each entry's `mul_add` chain in ascending rows. `v` is
    /// row-major with `NB` columns and as many rows as `a` has rows of
    /// `width`.
    ///
    /// # Safety
    /// `l + CW <= width`, `a` holds `v.len() / NB` rows of `width`, `acc`
    /// holds `NB` rows of `width`; the block's ISA is enabled.
    unsafe fn dot<const NB: usize>(a: &[T], width: usize, l: usize, v: &[T], acc: &mut [T]);
    /// `a[r][l + c] -= sum_i v[r][i] * y[i * width + l + c]` for `c < CW`,
    /// one chain per entry in ascending `i`.
    ///
    /// # Safety
    /// As for [`BlockCols::dot`], with `y` in place of `acc`.
    unsafe fn update<const NB: usize>(a: &mut [T], width: usize, l: usize, v: &[T], y: &[T]);
}

/// The scalar register block of `C` columns: the oracle of [`BlockCols`].
pub(crate) struct ScalarCols<const C: usize>;

impl<T: Scalar, const C: usize> BlockCols<T> for ScalarCols<C> {
    const CW: usize = C;

    #[inline(always)]
    unsafe fn dot<const NB: usize>(a: &[T], width: usize, l: usize, v: &[T], acc: &mut [T]) {
        let mut s: [[T; C]; NB] =
            std::array::from_fn(|i| std::array::from_fn(|c| acc[i * width + l + c]));
        for (vr, row) in v.chunks_exact(NB).zip(a.chunks_exact(width)) {
            let x = &row[l..l + C];
            for i in 0..NB {
                for c in 0..C {
                    s[i][c] = vr[i].mul_add(x[c], s[i][c]);
                }
            }
        }
        for (i, si) in s.iter().enumerate() {
            acc[i * width + l..i * width + l + C].copy_from_slice(si);
        }
    }

    #[inline(always)]
    unsafe fn update<const NB: usize>(a: &mut [T], width: usize, l: usize, v: &[T], y: &[T]) {
        for (vr, row) in v.chunks_exact(NB).zip(a.chunks_exact_mut(width)) {
            for c in 0..C {
                let mut x = row[l + c];
                for i in 0..NB {
                    x = (-vr[i]).mul_add(y[i * width + l + c], x);
                }
                row[l + c] = x;
            }
        }
    }
}

/// Blocked-factor pass 1 over rows `c0..rows`: `acc[i * width + l] =
/// sum_r v[r][i] * A(r, l)` for every column `l` outside the block
/// `[c0, c0 + nb)`. Columns to the right give `W = V_b^T C`; columns to the
/// left hold earlier reflectors' tails and give the cross-Gram. `v` is the
/// explicit `V_b`, row-major with `nb` columns. Columns go `K::CW` at a
/// time through the register block `K`, the ragged rest one at a time.
/// The pass also stores `v`'s rows `nb..` (the reflector tails) into the
/// block's columns of `A`, chunk by chunk while the rows are in L1; the
/// caller stores the block's first `nb` rows (its `R`).
///
/// # Safety
/// `at` holds `rows * width`, `v` `(rows - c0) * nb`, `acc` `nb * width`,
/// `nb <= FACTOR_BLOCK`; `K`'s ISA is enabled.
#[inline(always)]
pub(crate) unsafe fn block_dot_rows<T: Scalar, K: BlockCols<T>>(
    at: &mut [T],
    width: usize,
    rows: usize,
    c0: usize,
    nb: usize,
    v: &[T],
    acc: &mut [T],
) {
    macro_rules! dispatch {
        ($($n:literal)*) => {
            match nb {
                $($n => block_dot_nb::<T, K, $n>(at, width, rows, c0, v, acc),)*
                _ => panic!("block width {nb} exceeds {FACTOR_BLOCK}"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8)
}

#[inline(always)]
unsafe fn block_dot_nb<T: Scalar, K: BlockCols<T>, const NB: usize>(
    at: &mut [T],
    width: usize,
    rows: usize,
    c0: usize,
    v: &[T],
    acc: &mut [T],
) {
    let v = &v[..(rows - c0) * NB];
    let a = &mut at[c0 * width..rows * width];
    let acc = &mut acc[..NB * width];
    acc.fill(T::ZERO);
    let rc = block_row_chunk::<T>(width);
    for (ci, (vc, ac)) in v.chunks(rc * NB).zip(a.chunks_mut(rc * width)).enumerate() {
        // Store the chunk's tails while its rows come into L1 for the
        // accumulation below; the block's first NB rows hold `R` in `A`
        // but the unit diagonal in `v`, and the caller stores those.
        let skip = NB.saturating_sub(ci * rc);
        let n = vc.len() / NB;
        if skip < n {
            copy_block(
                &vc[skip * NB..],
                NB,
                &mut ac[skip * width + c0..],
                width,
                NB,
                n - skip,
            );
        }
        let ac = &*ac;
        for (lo, hi) in [(0, c0), (c0 + NB, width)] {
            let mut l = lo;
            while l + K::CW <= hi {
                K::dot::<NB>(ac, width, l, vc, acc);
                l += K::CW;
            }
            for l in l..hi {
                ScalarCols::<1>::dot::<NB>(ac, width, l, vc, acc);
            }
        }
    }
}

/// Rows per chunk of the blocked passes: every register block of a pass
/// sweeps one chunk before the next starts, so the chunk's rows stay in L1
/// across the blocks that read them.
#[inline(always)]
fn block_row_chunk<T>(width: usize) -> usize {
    (16 * 1024 / (width * std::mem::size_of::<T>())).max(1)
}

/// Blocked-factor pass 2 over rows `c0..rows`: with `W` in the trailing
/// columns of `acc` (from [`block_dot_rows`]) and the block's `T_b` in `tb`
/// (column-major `nb x nb`), forms `Y = T_b^T W` in place and applies
/// `A(r, l) -= sum_i v[r][i] * Y[i][l]` to every trailing column. Each
/// entry of `Y` and of the update is one `mul_add` chain in ascending `i`.
/// As each row chunk is finished, the next block's columns of its rows
/// from `c0 + nb` on are gathered into `next`, the next block's strip
/// (row-major, `min(FACTOR_BLOCK, width - c0 - nb)` columns).
///
/// # Safety
/// As for [`block_dot_rows`], with `tb` holding `nb * nb` and `next` the
/// next block's `(rows - c0 - nb)`-row strip.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn block_update_rows<T: Scalar, K: BlockCols<T>>(
    at: &mut [T],
    width: usize,
    rows: usize,
    c0: usize,
    nb: usize,
    v: &[T],
    tb: &[T],
    acc: &mut [T],
    next: &mut [T],
) {
    macro_rules! dispatch {
        ($($n:literal)*) => {
            match nb {
                $($n => block_update_nb::<T, K, $n>(at, width, rows, c0, v, tb, acc, next),)*
                _ => panic!("block width {nb} exceeds {FACTOR_BLOCK}"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn block_update_nb<T: Scalar, K: BlockCols<T>, const NB: usize>(
    at: &mut [T],
    width: usize,
    rows: usize,
    c0: usize,
    v: &[T],
    tb: &[T],
    acc: &mut [T],
    next: &mut [T],
) {
    let lo = c0 + NB;
    let nb2 = FACTOR_BLOCK.min(width - lo);
    assert!(acc.len() >= NB * width && tb.len() >= NB * NB);
    assert!(next.len() >= (rows - lo) * nb2);
    // Y = T_b^T W, row i from W rows 0..=i: descending i keeps the W rows
    // it still needs intact.
    for l in lo..width {
        for i in (0..NB).rev() {
            let mut y = T::ZERO;
            for p in 0..=i {
                y = tb[i * NB + p].mul_add(acc[p * width + l], y);
            }
            acc[i * width + l] = y;
        }
    }
    let v = &v[..(rows - c0) * NB];
    let a = &mut at[c0 * width..rows * width];
    let rc = block_row_chunk::<T>(width);
    for (ci, (vc, ac)) in v.chunks(rc * NB).zip(a.chunks_mut(rc * width)).enumerate() {
        let mut l = lo;
        while l + K::CW <= width {
            K::update::<NB>(ac, width, l, vc, acc);
            l += K::CW;
        }
        for l in l..width {
            ScalarCols::<1>::update::<NB>(ac, width, l, vc, acc);
        }
        // The next block's columns of these rows are final now: gather
        // them into its strip while the rows are still in L1.
        let first = ci * rc;
        let skip = NB.saturating_sub(first);
        let n = vc.len() / NB;
        if skip < n {
            copy_block(
                &ac[skip * width + lo..],
                width,
                &mut next[(first + skip - NB) * nb2..],
                nb2,
                nb2,
                n - skip,
            );
        }
    }
}

/// Fetch the active backend's row-pass kernels once per panel and run the
/// sweep with them. Every backend's passes are bit-identical to the scalar
/// oracle (independent per-lane fused chains — see `crate::simd`), so the
/// dispatch is a speed choice only and the bitwise guarantees documented on
/// [`geqr2_transposed`] hold for all of them.
fn factor_transposed_dispatch<T: Scalar, const GRAM: bool>(
    at: &mut [T],
    rows: usize,
    width: usize,
    tri_block: usize,
    tau: &mut [T],
    gram: &mut [T],
) {
    let kern = T::factor_kernels(crate::simd::active());
    factor_transposed_core::<T, GRAM, false>(at, rows, width, tri_block, tau, gram, kern);
}

/// The fused strategy-4 factor sweep. Per reflector `j` it makes exactly two
/// streaming passes over the trailing rows:
///
/// * **dot pass** ([`dot_rows`]) — one *full-width* `mul_add` per row lane:
///   lanes `> j` are the reference's `w = A^T v` accumulators (same seed,
///   same ascending-row chain as `larf_left`), lanes `< j` are exactly the
///   `V^T V` Gram chains `larft` needs (seeded from the pivot row like the
///   reference's `v_jj[j] * 1` term), and lane `j` is an unused scratch
///   lane. Accumulating every lane keeps the inner loop at a fixed,
///   unrollable trip count with no per-lane branching; the scaled reflector
///   tail is scattered into column `j` on the way through (the row is
///   already in cache). The scatter comes *after* the row's loads: a
///   scalar store followed by a wider load that covers it cannot be
///   store-forwarded on x86, and storing first stalled every row of the
///   sweep (1.4x slower at 512x32, up to 1.8x at width 16). Loading first
///   changes only what lane `j` accumulates (`A(r, j) * v_r` instead of
///   `v_r * v_r`), and lane `j` is dead: the Gram copy reads lanes `< j`,
///   the pivot-row fix-up and the update pass read lanes `> j`, and the
///   full-width scale writes lane `j` without anything reading it after.
/// * **update pass** ([`rank1_rows`]) — applies the rank-1 update with the
///   trailing width dispatched to a const-generic body (fully unrolled for
///   the practical widths), and harvests the *next* pivot column as each
///   row's final value is written, so no reflector after the first ever
///   does a strided column gather.
///
/// Every accumulator chain (per trailing column, per Gram pair) is the same
/// sequence of `mul_add`s in the same order as the unfused reference, so the
/// results are bitwise identical on dense panels; `tri_block` skips are
/// zero-sign-only as documented on [`geqr2_transposed`].
///
/// `TWO_CHAIN` runs the dot pass as [`strip_dot_rows`] instead: the blocked
/// factor's strip sweep, whose dense strips are at most [`FACTOR_BLOCK`]
/// wide.
#[inline(always)]
fn factor_transposed_core<T: Scalar, const GRAM: bool, const TWO_CHAIN: bool>(
    at: &mut [T],
    rows: usize,
    width: usize,
    tri_block: usize,
    tau: &mut [T],
    gram: &mut [T],
    kern: crate::simd::FactorKernels<T>,
) {
    assert_eq!(at.len(), rows * width);
    let k = rows.min(width);
    assert!(tau.len() >= k, "tau too short: {} < {}", tau.len(), k);
    let mut colbuf = crate::arena::take_dirty::<T>(rows);
    let mut nextbuf = crate::arena::take_dirty::<T>(rows);
    let mut waccbuf = crate::arena::take_dirty::<T>(width);
    let (mut col, mut next) = (&mut colbuf[..rows], &mut nextbuf[..rows]);
    let wacc = &mut waccbuf[..width];
    let mut have_col = false;
    for j in 0..k {
        if !have_col {
            for r in j..rows {
                col[r - j] = at[r * width + j];
            }
        }
        // The scalar `larfg` runs unchanged on the contiguous pivot column,
        // so every rescaling branch matches the reference. When it returns
        // zero it has not modified the column, so `at` needs no write-back.
        let t = larfg(&mut col[..rows - j]);
        tau[j] = t;
        have_col = false;
        if t != T::ZERO {
            let nt = width - j - 1;
            let pivot = j * width;
            at[pivot + j] = col[0];
            // Full-width accumulator init from the pivot row: lanes > j are
            // `larf_left`'s `w` seeds (the pivot row's trailing entries),
            // lanes < j are the Gram chain seeds A(j, jj).
            wacc.copy_from_slice(&at[pivot..pivot + width]);
            // SAFETY: slice shapes satisfy the scalar `dot_rows` (and, for
            // a dense strip, `strip_dot_rows`) contract, and the kernel
            // table only holds available backends.
            unsafe {
                if TWO_CHAIN {
                    (kern.strip_dot_rows)(at, width, rows, j, col, wacc)
                } else {
                    (kern.dot_rows)(at, width, rows, tri_block, j, col, wacc)
                }
            };
            if GRAM {
                for jj in 0..j {
                    gram[jj * k + j] = wacc[jj];
                }
            }
            if nt > 0 {
                // C -= tau * v * w^T, row-contiguous. The scale runs full
                // width: lanes <= j are dead (Gram values already copied
                // out), lanes > j are the reference's `tau * w[l]`.
                for wl in wacc.iter_mut() {
                    *wl = t * *wl;
                }
                for (cl, &wl) in at[pivot + j + 1..pivot + width]
                    .iter_mut()
                    .zip(&wacc[j + 1..])
                {
                    *cl -= wl;
                }
                // SAFETY: as for the dot pass above.
                unsafe {
                    (kern.rank1_rows)(at, width, rows, tri_block, j, col, next, &wacc[j + 1..])
                };
                std::mem::swap(&mut col, &mut next);
                have_col = true;
            }
        }
    }
}

/// Dot pass over the trailing rows: `wacc[c] += A(r, c) * v_r` for every
/// lane, scattering the scaled reflector tail into column `j`. Dispatches
/// the practical panel widths to a const-width body so the lane loop is
/// fully unrolled.
#[inline(always)]
pub(crate) fn dot_rows<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    match width {
        8 => dot_rows_w::<T, 8>(at, rows, tri_block, j, col, wacc),
        16 => dot_rows_w::<T, 16>(at, rows, tri_block, j, col, wacc),
        32 => dot_rows_w::<T, 32>(at, rows, tri_block, j, col, wacc),
        _ => {
            for r in j + 1..rows {
                if tri_block > 0 && r % tri_block > j {
                    continue; // v_r is a structural zero of the stacked-R layout
                }
                let base = r * width;
                let vr = col[r - j];
                for (wl, &al) in wacc[..width].iter_mut().zip(&at[base..base + width]) {
                    *wl = al.mul_add(vr, *wl);
                }
                at[base + j] = vr;
            }
        }
    }
}

#[inline(always)]
fn dot_rows_w<T: Scalar, const W: usize>(
    at: &mut [T],
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    // Accumulate in a local array so the lanes live in registers across the
    // whole sweep instead of round-tripping through memory every row.
    let mut acc: [T; W] = std::array::from_fn(|c| wacc[c]);
    let chunks = at[(j + 1) * W..rows * W].chunks_exact_mut(W);
    if tri_block == 0 {
        // Dense panel: branch-free row sweep.
        for (row, &vr) in chunks.zip(&col[1..rows - j]) {
            for c in 0..W {
                acc[c] = row[c].mul_add(vr, acc[c]);
            }
            row[j] = vr;
        }
    } else {
        // Stacked-triangles panel: a wrapping position counter (no per-row
        // division) skips rows whose v_r is a structural zero.
        let mut loc = (j + 1) % tri_block;
        for (row, &vr) in chunks.zip(&col[1..rows - j]) {
            let skip = loc > j;
            loc += 1;
            if loc == tri_block {
                loc = 0;
            }
            if skip {
                continue;
            }
            for c in 0..W {
                acc[c] = row[c].mul_add(vr, acc[c]);
            }
            row[j] = vr;
        }
    }
    wacc[..W].copy_from_slice(&acc);
}

/// The strip sweep's dot pass: [`dot_rows`] over a dense strip no wider
/// than [`FACTOR_BLOCK`], with two chains per lane. Trailing rows
/// alternate between the seeded accumulator (rows `j + 1`, `j + 3`, …)
/// and a zero-seeded one (rows `j + 2`, `j + 4`, …), each a `mul_add`
/// chain in ascending rows, and each lane ends as `even + odd`. That
/// halves the FMA latency chain the single-chain pass waits on per row,
/// and changes the bits against [`geqr2`], whose `larf_left` runs one
/// chain.
#[inline(always)]
pub(crate) fn strip_dot_rows<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    macro_rules! dispatch {
        ($($n:literal)*) => {
            match width {
                $($n => strip_dot_w::<T, $n>(at, rows, j, col, wacc),)*
                _ => panic!("strip width {width} exceeds {FACTOR_BLOCK}"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8)
}

#[inline(always)]
fn strip_dot_w<T: Scalar, const W: usize>(
    at: &mut [T],
    rows: usize,
    j: usize,
    col: &[T],
    wacc: &mut [T],
) {
    let mut even: [T; W] = std::array::from_fn(|c| wacc[c]);
    let mut odd = [T::ZERO; W];
    let mut pairs = at[(j + 1) * W..rows * W].chunks_exact_mut(2 * W);
    let mut vs = col[1..rows - j].chunks_exact(2);
    for (pair, v) in (&mut pairs).zip(&mut vs) {
        let (r0, r1) = pair.split_at_mut(W);
        for c in 0..W {
            even[c] = r0[c].mul_add(v[0], even[c]);
            odd[c] = r1[c].mul_add(v[1], odd[c]);
        }
        // The tail scatter follows the loads, as in `dot_rows_w`.
        r0[j] = v[0];
        r1[j] = v[1];
    }
    let last = pairs.into_remainder();
    if let [vr] = *vs.remainder() {
        for c in 0..W {
            even[c] = last[c].mul_add(vr, even[c]);
        }
        last[j] = vr;
    }
    for c in 0..W {
        wacc[c] = even[c] + odd[c];
    }
}

/// Rank-1 update pass over the trailing rows, harvesting column `j + 1`
/// (final after this very update) into `next` as the next pivot column.
/// The trailing width is dispatched to a const-generic body so the update
/// loop is fully unrolled for every width that occurs under the practical
/// panel widths (8/16/32).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank1_rows<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    next: &mut [T],
    tw: &[T],
) {
    let nt = width - j - 1;
    macro_rules! dispatch {
        ($($n:literal)*) => {
            match nt {
                $($n => rank1_rows_n::<T, $n>(at, width, rows, tri_block, j, col, next, tw),)*
                _ => rank1_rows_any(at, width, rows, tri_block, j, col, next, tw, nt),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rank1_rows_n<T: Scalar, const NT: usize>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    next: &mut [T],
    tw: &[T],
) {
    // Register-resident copy of the scaled w vector: NT is a compile-time
    // constant here, so the update below is a fully unrolled FMA sequence.
    let twa: [T; NT] = std::array::from_fn(|l| tw[l]);
    let chunks = at[(j + 1) * width..rows * width].chunks_exact_mut(width);
    if tri_block == 0 {
        // Dense panel: branch-free row sweep.
        for ((row, &vr), nx) in chunks.zip(&col[1..rows - j]).zip(&mut next[..]) {
            let seg = &mut row[j + 1..j + 1 + NT];
            for l in 0..NT {
                seg[l] = (-twa[l]).mul_add(vr, seg[l]);
            }
            *nx = seg[0];
        }
    } else {
        let mut loc = (j + 1) % tri_block;
        for ((row, &vr), nx) in chunks.zip(&col[1..rows - j]).zip(&mut next[..]) {
            let seg = &mut row[j + 1..j + 1 + NT];
            let skip = loc > j;
            loc += 1;
            if loc == tri_block {
                loc = 0;
            }
            if skip {
                // Untouched by this reflector; its column j + 1 entry is
                // already final.
                *nx = seg[0];
                continue;
            }
            for l in 0..NT {
                seg[l] = (-twa[l]).mul_add(vr, seg[l]);
            }
            *nx = seg[0];
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rank1_rows_any<T: Scalar>(
    at: &mut [T],
    width: usize,
    rows: usize,
    tri_block: usize,
    j: usize,
    col: &[T],
    next: &mut [T],
    tw: &[T],
    nt: usize,
) {
    for r in j + 1..rows {
        let base = r * width;
        if tri_block > 0 && r % tri_block > j {
            next[r - j - 1] = at[base + j + 1];
            continue;
        }
        let vr = col[r - j];
        for (cl, &wl) in at[base + j + 1..base + width].iter_mut().zip(&tw[..nt]) {
            *cl = (-wl).mul_add(vr, *cl);
        }
        next[r - j - 1] = at[base + j + 1];
    }
}

/// Form the explicit `m x k` orthogonal factor from the output of [`geqr2`]
/// (LAPACK `org2r`): `Q = H_0 H_1 ... H_{k-1} * [I_k; 0]`.
pub fn org2r<T: Scalar>(a: &Matrix<T>, tau: &[T], k: usize) -> Matrix<T> {
    let m = a.rows();
    let kk = k.min(a.cols()).min(m);
    assert_eq!(kk, k, "cannot form more Q columns than reflectors");
    let mut q = Matrix::<T>::zeros(m, k);
    for d in 0..k {
        q[(d, d)] = T::ONE;
    }
    let mut work = Vec::new();
    for i in (0..k).rev() {
        let t = tau[i];
        let v_tail: Vec<T> = a.col(i)[i + 1..].to_vec();
        // Apply H_i to Q[i.., i..].
        let sub = q.view_mut(i, i, m - i, k - i);
        larf_left(&v_tail, t, sub, &mut work)
            .expect("org2r: reflector length matches Q block by construction");
    }
    q
}

/// Extract the `min(m,n) x n` upper-triangular `R` from a factored matrix.
pub fn r_from_factored<T: Scalar>(a: &Matrix<T>) -> Matrix<T> {
    a.upper_triangular()
}

/// Apply the `k = tau.len()` Householder reflectors stored in the columns
/// of `v` (the [`geqr2`] layout: unit diagonal implicit, tails strictly
/// below it) to a full-height `c` in place, one `larf` sweep each:
/// `C = Q^T C` (forward order) when `transpose`, else `C = Q C`.
pub fn apply_q2<T: Scalar>(v: MatRef<'_, T>, tau: &[T], transpose: bool, mut c: MatMut<'_, T>) {
    let m = v.rows();
    debug_assert!(v.cols() >= tau.len());
    assert_eq!(c.rows(), m);
    let n = c.cols();
    let mut work = Vec::new();
    let mut order: Vec<usize> = (0..tau.len().min(m)).collect();
    if !transpose {
        order.reverse();
    }
    for j in order {
        let sub = c.rb_mut().submatrix_mut(j, 0, m - j, n);
        larf_left(&v.col(j)[j + 1..], tau[j], sub, &mut work)
            .expect("apply_q2: reflector length matches C block by construction");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm, Trans};
    use crate::norms::frobenius;

    fn test_matrix(m: usize, n: usize) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| {
            // Deterministic, well-conditioned-ish entries.
            (((i * 31 + j * 17 + 7) % 23) as f64 - 11.0) / 7.0 + if i == j { 3.0 } else { 0.0 }
        })
    }

    fn check_qr(a: &Matrix<f64>, tol: f64) {
        let m = a.rows();
        let n = a.cols();
        let k = m.min(n);
        let mut f = a.clone();
        let mut tau = vec![0.0; k];
        geqr2(f.as_mut(), &mut tau);
        let q = org2r(&f, &tau, k);
        let r = r_from_factored(&f);
        // ||A - QR||
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
        let mut diff = 0.0f64;
        for i in 0..m {
            for j in 0..n {
                diff = diff.max((qr[(i, j)] - a[(i, j)]).abs());
            }
        }
        assert!(diff < tol, "reconstruction error {diff} for {m}x{n}");
        // ||Q^T Q - I||
        let mut qtq = Matrix::<f64>::zeros(k, k);
        gemm(
            Trans::Yes,
            Trans::No,
            1.0,
            q.as_ref(),
            q.as_ref(),
            0.0,
            qtq.as_mut(),
        );
        for i in 0..k {
            for j in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (qtq[(i, j)] - want).abs() < tol,
                    "orthogonality at ({i},{j})"
                );
            }
        }
        // R upper triangular by construction; diag of R should be nonzero for
        // these well-conditioned inputs.
        for d in 0..k {
            assert!(r[(d, d)].abs() > 1e-10);
        }
        let _ = frobenius(&qr);
    }

    /// Scalar column-major [`geqr2`] with the strip sweep's two-chain dot
    /// order ([`strip_dot_rows`]): each `w = C^T v` entry is the pivot-row
    /// seed plus the tail rows `j + 1, j + 3, …` in one `mul_add` chain,
    /// plus the rows `j + 2, j + 4, …` in a zero-seeded chain, summed once.
    fn geqr2_two_chain<T: Scalar>(a: &mut Matrix<T>, tau: &mut [T]) {
        let (m, n) = (a.rows(), a.cols());
        for j in 0..m.min(n) {
            let t = larfg(&mut a.col_mut(j)[j..]);
            tau[j] = t;
            if t == T::ZERO {
                continue;
            }
            let v = a.col(j)[j + 1..].to_vec();
            for l in j + 1..n {
                let c = a.col_mut(l);
                let (mut even, mut odd) = (c[j], T::ZERO);
                for (i, (&ci, &vi)) in c[j + 1..].iter().zip(&v).enumerate() {
                    if i % 2 == 0 {
                        even = ci.mul_add(vi, even);
                    } else {
                        odd = ci.mul_add(vi, odd);
                    }
                }
                let tw = t * (even + odd);
                c[j] -= tw;
                for (ci, &vi) in c[j + 1..].iter_mut().zip(&v) {
                    *ci = (-tw).mul_add(vi, *ci);
                }
            }
        }
    }

    /// Columns `0..8` and `tau[0..8]` of a blocked panel are final after
    /// its first strip, so they must equal the two-chain `geqr2` of the
    /// panel's first 8 columns bit for bit, on the active backend. Odd and
    /// even row counts, just past the type's budget and far past it.
    fn assert_first_strip_is_two_chain_geqr2<T: Scalar>() {
        for width in [12usize, 20, 32] {
            let min_rows = factor_l1_bytes::<T>() / (width * std::mem::size_of::<T>()) + 1;
            for rows in [min_rows, min_rows + 1, 3 * min_rows + 2] {
                let ctx = format!("f{} {rows}x{width}", 8 * std::mem::size_of::<T>());
                let a = crate::generate::uniform::<T>(rows, width, rows as u64);
                let mut at: Vec<T> = (0..rows * width)
                    .map(|i| a[(i / width, i % width)])
                    .collect();
                let mut tau = vec![T::ZERO; width];
                let mut gram = vec![T::ZERO; width * width];
                geqrf_gram_transposed(&mut at, rows, width, &mut tau, &mut gram);
                let mut want = a.extract(0, 0, rows, FACTOR_BLOCK);
                let mut tau_want = vec![T::ZERO; FACTOR_BLOCK];
                geqr2_two_chain(&mut want, &mut tau_want);
                for j in 0..FACTOR_BLOCK {
                    assert_eq!(
                        tau[j].to_f64().to_bits(),
                        tau_want[j].to_f64().to_bits(),
                        "{ctx} tau[{j}]"
                    );
                    for r in 0..rows {
                        assert_eq!(
                            at[r * width + j].to_f64().to_bits(),
                            want[(r, j)].to_f64().to_bits(),
                            "{ctx} ({r},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_strip_is_two_chain_geqr2() {
        assert_first_strip_is_two_chain_geqr2::<f64>();
        assert_first_strip_is_two_chain_geqr2::<f32>();
    }

    #[test]
    fn qr_tall() {
        check_qr(&test_matrix(20, 5), 1e-12);
    }

    #[test]
    fn qr_square() {
        check_qr(&test_matrix(8, 8), 1e-12);
    }

    #[test]
    fn qr_wide() {
        check_qr(&test_matrix(4, 9), 1e-12);
    }

    #[test]
    fn qr_single_column() {
        check_qr(&test_matrix(7, 1), 1e-13);
    }

    #[test]
    fn qr_single_row() {
        let a = Matrix::from_row_major(1, 3, &[2.0f64, 3.0, 4.0]);
        let mut f = a.clone();
        let mut tau = vec![0.0];
        geqr2(f.as_mut(), &mut tau);
        // H must be identity, R == A.
        assert_eq!(tau[0], 0.0);
        assert_eq!(f, a);
    }

    #[test]
    fn larfg_annihilates_tail() {
        let mut x = vec![3.0f64, 4.0, 0.0, 12.0];
        let norm = nrm2(&x);
        let tau = larfg(&mut x);
        let beta = x[0];
        assert!((beta.abs() - norm).abs() < 1e-12);
        // beta has opposite sign of alpha per the -sign(alpha) convention.
        assert!(beta < 0.0);
        assert!(tau > 0.0 && tau <= 2.0);
        // Verify H x0 = beta e1 by applying the reflector to the original.
        let x0 = [3.0f64, 4.0, 0.0, 12.0];
        let v = [1.0, x[1], x[2], x[3]];
        let vdotx: f64 = v.iter().zip(&x0).map(|(a, b)| a * b).sum();
        for (i, (&vi, &xi)) in v.iter().zip(&x0).enumerate() {
            let hxi = xi - tau * vi * vdotx;
            let want = if i == 0 { beta } else { 0.0 };
            assert!((hxi - want).abs() < 1e-12, "component {i}: {hxi} vs {want}");
        }
    }

    #[test]
    fn larfg_zero_tail_is_identity() {
        let mut x = vec![5.0f64, 0.0, 0.0];
        let tau = larfg(&mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(x[0], 5.0);
    }

    #[test]
    fn larfg_subnormal_column_yields_true_norm() {
        // Without the safmin rescaling loop, beta is computed in the
        // subnormal range and |beta| drifts far from ||x||.
        let s = 1.0e-300f64;
        let mut x = vec![3.0 * s, 4.0 * s, 0.0, 12.0 * s];
        let norm = 13.0 * s;
        let tau = larfg(&mut x);
        let beta = x[0];
        assert!(
            (beta.abs() - norm).abs() <= 4.0 * f64::EPSILON * norm,
            "beta {beta} vs ||x|| {norm}"
        );
        assert!(tau > 0.0 && tau <= 2.0, "tau {tau} out of [0, 2]");
        // The tail is scale-invariant: same reflector as the 1.0-scaled column.
        let mut y = vec![3.0f64, 4.0, 0.0, 12.0];
        let tau_y = larfg(&mut y);
        assert!((tau - tau_y).abs() < 1e-14);
        for (a, b) in x[1..].iter().zip(&y[1..]) {
            assert!((a - b).abs() < 1e-14, "tail {a} vs {b}");
        }
    }

    #[test]
    fn larfg_huge_column_stays_finite() {
        let s = 1.0e+300f64;
        let mut x = vec![3.0 * s, 4.0 * s];
        let tau = larfg(&mut x);
        assert!(x[0].is_finite() && tau.is_finite());
        assert!((x[0].abs() - 5.0 * s).abs() <= 4.0 * f64::EPSILON * 5.0 * s);
    }

    #[test]
    fn larf_left_rejects_mismatched_reflector() {
        let mut c = Matrix::<f64>::zeros(5, 2);
        let v_tail = [0.5f64, 0.25]; // length 2 + 1 != 5 rows
        let mut work = Vec::new();
        let err = larf_left(&v_tail, 1.5, c.as_mut(), &mut work).unwrap_err();
        assert!(matches!(
            err,
            crate::error::DenseError::ShapeMismatch {
                expected: 5,
                got: 3,
                ..
            }
        ));
        // And the mismatch is reported even for tau == 0.
        assert!(larf_left(&v_tail, 0.0, c.as_mut(), &mut work).is_err());
    }

    #[test]
    fn larfg_negative_leading() {
        let mut x = vec![-3.0f64, 4.0];
        let tau = larfg(&mut x);
        assert!((x[0] - 5.0).abs() < 1e-12); // beta = -sign(-3)*5 = +5
        assert!(tau > 0.0);
    }

    #[test]
    fn apply_q2_transpose_then_back_is_identity() {
        let a = test_matrix(12, 4);
        let mut f = a.clone();
        let mut tau = vec![0.0; 4];
        geqr2(f.as_mut(), &mut tau);
        let mut c = test_matrix(12, 3);
        let orig = c.clone();
        apply_q2(f.as_ref(), &tau, true, c.as_mut());
        apply_q2(f.as_ref(), &tau, false, c.as_mut());
        for i in 0..12 {
            for j in 0..3 {
                assert!((c[(i, j)] - orig[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qt_times_a_gives_r() {
        let a = test_matrix(10, 4);
        let mut f = a.clone();
        let mut tau = vec![0.0; 4];
        geqr2(f.as_mut(), &mut tau);
        let mut c = a.clone();
        apply_q2(f.as_ref(), &tau, true, c.as_mut());
        // c should now equal [R; 0].
        for j in 0..4 {
            for i in 0..10 {
                let want = if i <= j { f[(i, j)] } else { 0.0 };
                assert!((c[(i, j)] - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }
}
