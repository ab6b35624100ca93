//! The strategy-independent *math* of the four kernels, shared between the
//! simulated-GPU kernels ([`crate::kernels`]) and the host-multicore
//! implementation ([`crate::multicore`]): factor a tile, factor a gathered
//! triangle stack, apply tile reflectors, apply a tree node.
//!
//! Factorization precomputes the compact-WY representation `Q = I - V T V^T`
//! ([`WyTile`], `TreeNode::tmat`), so every apply is three GEMMs (`larfb`)
//! instead of `k` rank-1 sweeps over the tile — the BLAS3 restructuring of
//! the trailing update. [`apply_tile_reflectors`] keeps the original
//! per-reflector BLAS2 path as the reference (tested equivalent, and the
//! baseline for the larf-vs-larfb benches).
//!
//! All functions follow the [`dense::ptr::MatPtr`] disjoint-tile contract —
//! the caller's parallel loop must hand each invocation a tile no other
//! concurrent invocation touches.

use crate::block::Tile;
use crate::tsqr::{TreeNode, WyTile};
use dense::arena;
use dense::blas3::{gemm, gemm_in_place, takes_packed_path, PackedA, Trans};
use dense::blocked::{extract_v, larfb_left_in_place, larft, larft_from_gram, PackedV};
use dense::householder::{geqr2, geqr2_gram_transposed, geqrf_gram_transposed};
use dense::matrix::{MatMut, MatRef, Matrix};
use dense::scalar::Scalar;
use dense::MatPtr;

/// Factor one `tile.rows x width` tile of the panel in place and build its
/// compact-WY factors. (The `factor` kernel body.)
///
/// The tile is packed **pre-transposed** (row-major) into arena scratch
/// once, factored by [`dense::householder::geqrf_gram_transposed`], and the
/// WY factors are built from the same packing, with contiguous-row
/// trailing updates and no per-launch allocation beyond the small
/// `tau`/`T` outputs. A tile whose packing fits its type's
/// [`dense::householder::factor_l1_bytes`] budget runs the unblocked
/// strategy-4 sweep and is bit-identical to [`factor_tile_ref`]. A larger
/// tile is factored in 8-column blocks (see `geqrf_gram_transposed`),
/// which agrees with [`factor_tile_ref`] to rounding, not bitwise; every
/// executor calls this function, so the executors still agree bitwise
/// with each other.
///
/// The explicit `V` (unit diagonal, zeros above, tails below) is written in
/// full through `v`, the tile's `tile.rows x k` block of its panel's slab
/// (`k = min(tile.rows, width)`, see [`crate::tsqr::PanelFactor::tile_v`]).
/// The slab comes from the arena dirty, so every element is written. `v`
/// follows the same disjoint-tile contract as `a`. The pack and the
/// unpack go through `MatPtr`'s blocked transposes
/// ([`MatPtr::load_tile_transposed`],
/// [`MatPtr::store_factored_transposed`]), which move bits unchanged.
pub fn factor_tile<T: Scalar>(
    a: MatPtr<T>,
    tile: Tile,
    col0: usize,
    width: usize,
    v: MatPtr<T>,
) -> WyTile<T> {
    let rows = tile.rows;
    let k = rows.min(width);
    // Pack pre-transposed straight from the panel: at[r * width + j] = A(r, j).
    let mut at = arena::take_dirty::<T>(rows * width);
    // SAFETY: the caller assigns disjoint tiles to concurrent invocations.
    unsafe {
        a.load_tile_transposed(tile.start, col0, rows, width, &mut at);
    }
    let mut tau = vec![T::ZERO; k];
    let mut gram = arena::take_dirty::<T>(k * k);
    geqrf_gram_transposed(&mut at, rows, width, &mut tau, &mut gram);
    // One blocked pass over the factored packing stores the tile back,
    // writes the explicit V and checks the tails for finiteness (the
    // diagonal ones and the zeros above are finite by construction).
    // SAFETY: same tile; the caller hands this invocation its own V block.
    let tails_finite =
        unsafe { a.store_factored_transposed(tile.start, col0, rows, width, &at, v) };
    let t = larft_from_gram(&gram, &tau);
    let healthy = all_finite(t.as_slice()) && all_finite(&tau) && tails_finite;
    WyTile { tau, t, healthy }
}

/// Pre-arena reference implementation of [`factor_tile`]: fresh column-major
/// buffer, dense [`geqr2`]/[`larft`], and an owned explicit `V` returned
/// beside the factors. Kept as the `geqr2` oracle for the property tests
/// (bitwise for tiles within the `factor_l1_bytes` budget) and the "before" row of the
/// wallclock report.
pub fn factor_tile_ref<T: Scalar>(
    a: MatPtr<T>,
    tile: Tile,
    col0: usize,
    width: usize,
) -> (WyTile<T>, Matrix<T>) {
    let mut buf = vec![T::ZERO; tile.rows * width];
    // SAFETY: the caller assigns disjoint tiles to concurrent invocations.
    unsafe {
        a.load_tile(tile.start, col0, tile.rows, width, &mut buf);
    }
    let k = tile.rows.min(width);
    let mut tau = vec![T::ZERO; k];
    geqr2(
        MatMut::from_parts(&mut buf, tile.rows, width, tile.rows),
        &mut tau,
    );
    // SAFETY: same tile.
    unsafe {
        a.store_tile(tile.start, col0, tile.rows, width, &buf);
    }
    let factored = MatRef::from_parts(&buf, tile.rows, width, tile.rows);
    // larft reads only the strictly-below-diagonal entries of the factored
    // panel, so it can run on `buf` directly; V is then packed explicitly
    // (unit diagonal, zeros above) so every trailing apply streams it.
    let t = larft(factored, &tau);
    let v = extract_v(factored, k);
    let healthy = all_finite(t.as_slice()) && all_finite(&tau) && all_finite(v.as_slice());
    (WyTile { tau, t, healthy }, v)
}

/// True when every entry of the slice is finite (no NaN/inf).
///
/// Branchless lane accumulation of `x - x` (exactly `+0.0` for finite `x`,
/// NaN otherwise) so the scan vectorizes; the early-exit scalar loop only
/// runs on the sub-lane tail.
#[allow(clippy::eq_op)] // the `x - x` probe is +0.0 iff `x` is finite, NaN otherwise
fn all_finite<T: Scalar>(xs: &[T]) -> bool {
    const LANES: usize = 8;
    let mut acc = [T::ZERO; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            acc[l] += c[l] - c[l];
        }
    }
    chunks.remainder().iter().all(|v| v.is_finite()) && acc.iter().all(|&a| a == T::ZERO)
}

/// Gather the stacked R-triangles of one tree group, factor the stack, and
/// write the surviving R back to the leader. (The `factor_tree` kernel body.)
///
/// The stack is gathered **pre-transposed** into zeroed arena scratch and
/// factored with `tri_block == width`, so the micro-kernel skips the known
/// zero triangles of every stacked `R` in the trailing updates and the `T`
/// build (~2x the useful-flop density of the dense iteration at `arity`-row
/// stacks). The skipped terms are exact `±0.0` products; results agree with
/// [`factor_tree_group_ref`] on every value (zero signs may differ).
pub fn factor_tree_group<T: Scalar>(
    a: MatPtr<T>,
    members: &[usize],
    col0: usize,
    width: usize,
) -> TreeNode<T> {
    let w = width;
    let t = members.len();
    let rows = t * w;
    // Everything outside the gathered triangles is a structural zero the
    // tri_block skips rely on, so the scratch must start zeroed.
    let mut at = arena::take_zeroed::<T>(rows * w);
    for (ti, &r0) in members.iter().enumerate() {
        for i in 0..w {
            for j in i..w {
                // SAFETY: this group's triangles belong to this invocation.
                at[(ti * w + i) * w + j] = unsafe { a.get(r0 + i, col0 + j) };
            }
        }
    }
    let k = w.min(rows);
    let mut tau = vec![T::ZERO; k];
    let mut gram = arena::take_dirty::<T>(k * k);
    geqr2_gram_transposed(&mut at, rows, w, w, &mut tau, &mut gram);
    let r0 = members[0];
    for i in 0..w {
        for j in i..w {
            // SAFETY: leader triangle belongs to this group.
            unsafe { a.set(r0 + i, col0 + j, at[i * w + j]) };
        }
    }
    let tmat = larft_from_gram(&gram, &tau);
    let mut u = Matrix::<T>::zeros(rows, w);
    for j in 0..w {
        let col = u.col_mut(j);
        for (r, x) in col.iter_mut().enumerate() {
            *x = at[r * w + j];
        }
    }
    let healthy = all_finite(tmat.as_slice()) && all_finite(&tau) && all_finite(u.as_slice());
    TreeNode {
        members: members.to_vec(),
        u,
        tau,
        tmat,
        healthy,
    }
}

/// Pre-arena reference implementation of [`factor_tree_group`]: fresh
/// column-major gather, dense [`geqr2`]/[`larft`]. Kept as the oracle for
/// the property tests (values equal; zero signs may differ where the fast
/// path skips structural-zero products).
pub fn factor_tree_group_ref<T: Scalar>(
    a: MatPtr<T>,
    members: &[usize],
    col0: usize,
    width: usize,
) -> TreeNode<T> {
    let w = width;
    let t = members.len();
    let rows = t * w;
    let mut buf = vec![T::ZERO; rows * w];
    for (ti, &r0) in members.iter().enumerate() {
        for j in 0..w {
            for i in 0..=j {
                // SAFETY: this group's triangles belong to this invocation.
                buf[j * rows + ti * w + i] = unsafe { a.get(r0 + i, col0 + j) };
            }
        }
    }
    let mut tau = vec![T::ZERO; w.min(rows)];
    geqr2(MatMut::from_parts(&mut buf, rows, w, rows), &mut tau);
    let r0 = members[0];
    for j in 0..w {
        for i in 0..=j {
            // SAFETY: leader triangle belongs to this group.
            unsafe { a.set(r0 + i, col0 + j, buf[j * rows + i]) };
        }
    }
    let tmat = larft(MatRef::from_parts(&buf, rows, w, rows), &tau);
    let u = Matrix::from_col_major(rows, w, buf);
    let healthy = all_finite(tmat.as_slice()) && all_finite(&tau) && all_finite(u.as_slice());
    TreeNode {
        members: members.to_vec(),
        u,
        tau,
        tmat,
        healthy,
    }
}

/// Apply one tile's compact-WY factor (`wy`, with its explicit `V` block
/// `v`) to one `tile.rows x wc` target tile at column `c0`, in place:
/// [`apply_tile_wy_packed`] with `V` packed for this one call. An apply
/// over many column blocks packs once and calls that directly.
pub fn apply_tile_wy<T: Scalar>(
    wy: &WyTile<T>,
    v: MatRef<'_, T>,
    c: MatPtr<T>,
    tile: Tile,
    c0: usize,
    wc: usize,
    transpose: bool,
) {
    let kern = T::gemm_kernel(dense::simd::active());
    // Dirty arena scratch: the pack writes every element it reads.
    let mut buf = arena::take_dirty::<T>(PackedV::len(v.rows(), v.cols(), &kern));
    let packed = PackedV::pack(v, kern, &mut buf);
    apply_tile_wy_packed(wy, &packed, c, tile, c0, wc, transpose);
}

/// Apply one tile's compact-WY factor (`wy`, with its explicit `V` block
/// packed in `v`) to one `tile.rows x wc` target tile at column `c0`, in
/// place: [`dense::blocked::larfb_left_in_place`]'s three GEMMs read and
/// write the tile straight in the matrix. (The `apply_qt_h` kernel body.)
pub fn apply_tile_wy_packed<T: Scalar>(
    wy: &WyTile<T>,
    v: &PackedV<'_, T>,
    c: MatPtr<T>,
    tile: Tile,
    c0: usize,
    wc: usize,
    transpose: bool,
) {
    let rows = tile.rows;
    debug_assert_eq!(v.v().rows(), rows);
    if wy.healthy {
        // SAFETY: target tiles are disjoint across invocations.
        unsafe { larfb_left_in_place(v, wy.t.as_ref(), transpose, c, (tile.start, c0), wc) };
        return;
    }
    // Compact-WY breakdown (non-finite `T`): degrade to the per-reflector
    // larf sweeps on a copy, which never read `T`. The explicit `V` has
    // the geqr2 layout (unit diagonal implicit, tails below), which is
    // exactly what `dense::householder::apply_q2` expects.
    let mut cbuf = arena::take_dirty::<T>(rows * wc);
    // SAFETY: target tiles are disjoint across invocations.
    unsafe { c.load_tile(tile.start, c0, rows, wc, &mut cbuf) };
    dense::householder::apply_q2(
        v.v(),
        &wy.tau,
        transpose,
        MatMut::from_parts(&mut cbuf, rows, wc, rows),
    );
    // SAFETY: same disjoint tile.
    unsafe { c.store_tile(tile.start, c0, rows, wc, &cbuf) };
}

/// Apply one tile's reflectors one at a time (BLAS2 `larf` sweeps) to one
/// `tile.rows x wc` target tile. The pre-WY reference path: kept for the
/// equivalence tests and the larf-vs-larfb benches.
#[allow(clippy::too_many_arguments)]
pub fn apply_tile_reflectors<T: Scalar>(
    v: MatPtr<T>,
    c: MatPtr<T>,
    tile: Tile,
    col0: usize,
    width: usize,
    tau: &[T],
    c0: usize,
    wc: usize,
    transpose: bool,
) {
    let rows = tile.rows;
    // Dirty arena scratch throughout: both load_tile calls overwrite every
    // element of their buffer.
    let mut vbuf = arena::take_dirty::<T>(rows * width);
    // SAFETY: the panel region is read-only during the launch.
    unsafe {
        v.load_tile(tile.start, col0, rows, width, &mut vbuf);
    }
    let mut cbuf = arena::take_dirty::<T>(rows * wc);
    // SAFETY: target tiles are disjoint across invocations.
    unsafe {
        c.load_tile(tile.start, c0, rows, wc, &mut cbuf);
    }
    dense::householder::apply_q2(
        MatRef::from_parts(&vbuf, rows, width, rows),
        tau,
        transpose,
        MatMut::from_parts(&mut cbuf, rows, wc, rows),
    );
    // SAFETY: same disjoint tile.
    unsafe {
        c.store_tile(tile.start, c0, rows, wc, &cbuf);
    }
}

/// Apply a tree node's compact-WY factor to a gathered `(t*w) x wc` stack in
/// place, exploiting the block structure of the stacked `V`:
///
/// ```text
/// V = [ I_w ]        (exact — geqr2 never fills the leader's sub-diagonal)
///     [ V_1 ]        each V_i is w x w upper triangular
///     [ ... ]
/// ```
///
/// so `W = V^T C` starts as a copy of the top strip (skipping the unit
/// block's multiply entirely) and accumulates one `w x w` GEMM per lower
/// block, never touching the structural zeros between blocks; `C -= V W`
/// mirrors it. For a `t`-member node this does `(t-1)/t` of the flops of the
/// dense `V` product on top of the usual 3-GEMM larfb saving.
pub fn apply_stacked_wy<T: Scalar>(
    node: &TreeNode<T>,
    width: usize,
    mut c: MatMut<'_, T>,
    transpose: bool,
) {
    let w = width;
    let t = node.members.len();
    debug_assert_eq!(c.rows(), t * w);
    let wc = c.cols();
    if wc == 0 {
        return;
    }
    if !node.healthy {
        // Compact-WY breakdown: apply the stacked reflectors one at a time
        // (never touching the non-finite `tmat`). Same call as the
        // equivalence test `stacked_wy_matches_per_reflector_on_tree_node`.
        dense::householder::apply_q2(node.u.as_ref(), &node.tau, transpose, c);
        return;
    }
    // W = V^T C: top block of V is exactly I_w, so W starts as a copy of
    // the top strip (into dirty arena scratch, fully overwritten here).
    let mut wbuf = arena::take_dirty::<T>(w * wc);
    {
        let top = c.as_ref().submatrix(0, 0, w, wc);
        for j in 0..wc {
            wbuf[j * w..(j + 1) * w].copy_from_slice(top.col(j));
        }
    }
    let mut wmat = MatMut::from_parts(&mut wbuf, w, wc, w);
    for i in 1..t {
        gemm(
            Trans::Yes,
            Trans::No,
            T::ONE,
            node.u.view(i * w, 0, w, w),
            c.as_ref().submatrix(i * w, 0, w, wc),
            T::ONE,
            wmat.rb_mut(),
        );
    }
    // W = op(T) W (beta == 0 fully defines the dirty scratch).
    let mut twbuf = arena::take_dirty::<T>(w * wc);
    let mut tw = MatMut::from_parts(&mut twbuf, w, wc, w);
    gemm(
        if transpose { Trans::Yes } else { Trans::No },
        Trans::No,
        T::ONE,
        node.tmat.as_ref(),
        wmat.as_ref(),
        T::ZERO,
        tw.rb_mut(),
    );
    // C -= V W: unit top block subtracts W directly.
    for j in 0..wc {
        let col = c.col_mut(j);
        for (i, ci) in col.iter_mut().take(w).enumerate() {
            *ci -= tw.at(i, j);
        }
    }
    for i in 1..t {
        gemm(
            Trans::No,
            Trans::No,
            -T::ONE,
            node.u.view(i * w, 0, w, w),
            tw.as_ref(),
            T::ONE,
            c.rb_mut().submatrix_mut(i * w, 0, w, wc),
        );
    }
}

/// Apply one tree node's reflectors to the stacked `width`-row strips of
/// the target at columns `[c0, c0 + wc)`. (The `apply_qt_tree` kernel body.)
///
/// A healthy node whose `w x wc x w` block products take the packed GEMM
/// path runs [`apply_stacked_wy`]'s per-block GEMM sequence in place on
/// the member strips (see `apply_tree_node_in_place`). Otherwise the
/// strips are gathered into a stack with per-column copies, applied by
/// [`apply_stacked_wy`] and scattered back.
pub fn apply_tree_node<T: Scalar>(
    c: MatPtr<T>,
    node: &TreeNode<T>,
    width: usize,
    c0: usize,
    wc: usize,
    transpose: bool,
) {
    let w = width;
    if node.healthy && takes_packed_path(w, wc, w) {
        // SAFETY: each (group, column-block) strip set is disjoint.
        unsafe { apply_tree_node_in_place(c, node, w, c0, wc, transpose) };
        return;
    }
    let rows = node.members.len() * w;
    // Dirty arena scratch: the gather below writes every element.
    let mut cbuf = arena::take_dirty::<T>(rows * wc);
    for (si, &r0) in node.members.iter().enumerate() {
        for j in 0..wc {
            // SAFETY: each (group, column-block) strip set is disjoint.
            let src = unsafe { c.col_segment(r0, c0 + j, w) };
            cbuf[j * rows + si * w..][..w].copy_from_slice(src);
        }
    }
    apply_stacked_wy(
        node,
        w,
        MatMut::from_parts(&mut cbuf, rows, wc, rows),
        transpose,
    );
    for (si, &r0) in node.members.iter().enumerate() {
        for j in 0..wc {
            // SAFETY: same disjoint strips.
            let dst = unsafe { c.col_segment_mut(r0, c0 + j, w) };
            dst.copy_from_slice(&cbuf[j * rows + si * w..][..w]);
        }
    }
}

/// [`apply_stacked_wy`] on the member strips where they lie: the same
/// per-block GEMMs in the same order, each through
/// [`dense::blas3::gemm_in_place`] with the strip read or written in the
/// matrix, so the result is bit-identical to gathering, applying and
/// scattering. The caller checks that the block products take the packed
/// path ([`takes_packed_path`]) and that the node is healthy.
///
/// # Safety
/// The strips at columns `[c0, c0 + wc)` must belong exclusively to the
/// calling block (the [`MatPtr`] contract).
unsafe fn apply_tree_node_in_place<T: Scalar>(
    c: MatPtr<T>,
    node: &TreeNode<T>,
    w: usize,
    c0: usize,
    wc: usize,
    transpose: bool,
) {
    let kern = T::gemm_kernel(dense::simd::active());
    let top = node.members[0];
    let lower = || node.members.iter().enumerate().skip(1);
    // W = V^T C: the top block of V is exactly I_w, so W starts as a copy
    // of the top strip (dirty arena scratch, fully overwritten here).
    let mut wbuf = arena::take_dirty::<T>(w * wc);
    for j in 0..wc {
        wbuf[j * w..(j + 1) * w].copy_from_slice(c.col_segment(top, c0 + j, w));
    }
    let wp = MatPtr::from_raw_parts(wbuf.as_mut_ptr(), w, wc, w);
    let mut ubuf = arena::take_dirty::<T>(PackedA::<T>::len(w, w, kern.mr));
    for (i, &r0) in lower() {
        let ut = PackedA::pack(Trans::Yes, node.u.view(i * w, 0, w, w), kern.mr, &mut ubuf);
        gemm_in_place(&kern, T::ONE, &ut, c, (r0, c0), T::ONE, wp, (0, 0), wc);
    }
    // W = op(T) W (beta == 0 fully defines the dirty scratch).
    let mut twbuf = arena::take_dirty::<T>(w * wc);
    gemm(
        if transpose { Trans::Yes } else { Trans::No },
        Trans::No,
        T::ONE,
        node.tmat.as_ref(),
        MatRef::from_parts(&wbuf, w, wc, w),
        T::ZERO,
        MatMut::from_parts(&mut twbuf, w, wc, w),
    );
    // C -= V W: the unit top block subtracts W directly.
    for j in 0..wc {
        let col = c.col_segment_mut(top, c0 + j, w);
        for (ci, &x) in col.iter_mut().zip(&twbuf[j * w..(j + 1) * w]) {
            *ci -= x;
        }
    }
    let tw = MatPtr::from_raw_parts(twbuf.as_mut_ptr(), w, wc, w);
    for (i, &r0) in lower() {
        let u = PackedA::pack(Trans::No, node.u.view(i * w, 0, w, w), kern.mr, &mut ubuf);
        gemm_in_place(&kern, -T::ONE, &u, tw, (0, 0), T::ONE, c, (r0, c0), wc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::tile_panel;

    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// [`factor_tile`] into an owned `V` that starts as NaN, so a block
    /// element the kernel forgot to write shows up in the comparison.
    fn factor_tile_owned<T: Scalar>(
        a: &mut Matrix<T>,
        tile: Tile,
        width: usize,
    ) -> (WyTile<T>, Matrix<T>) {
        let k = tile.rows.min(width);
        let mut v = Matrix::from_fn(tile.rows, k, |_, _| T::from_f64(f64::NAN));
        let wy = factor_tile(MatPtr::new(a), tile, 0, width, MatPtr::new(&mut v));
        (wy, v)
    }

    fn bits<T: Scalar>(xs: &[T]) -> Vec<u64> {
        xs.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// [`factor_tile`]'s copies as they were before they were blocked, the
    /// reference for the blocked ones: a column-outer element-by-element
    /// pack, the same [`geqrf_gram_transposed`], and a column loop that
    /// writes the tile, the explicit `V` and the tail check one element at
    /// a time.
    fn factor_tile_elementwise<T: Scalar>(
        a: &mut Matrix<T>,
        tile: Tile,
        width: usize,
    ) -> (WyTile<T>, Matrix<T>) {
        let rows = tile.rows;
        let k = rows.min(width);
        let mut at = vec![T::ZERO; rows * width];
        for j in 0..width {
            for r in 0..rows {
                at[r * width + j] = a[(tile.start + r, j)];
            }
        }
        let mut tau = vec![T::ZERO; k];
        let mut gram = vec![T::ZERO; k * k];
        geqrf_gram_transposed(&mut at, rows, width, &mut tau, &mut gram);
        let mut v = Matrix::zeros(rows, k);
        let mut tails_finite = true;
        for j in 0..width {
            for r in 0..rows {
                let x = at[r * width + j];
                a[(tile.start + r, j)] = x;
                if j < k {
                    v[(r, j)] = match r.cmp(&j) {
                        Ordering::Less => T::ZERO,
                        Ordering::Equal => T::ONE,
                        Ordering::Greater => x,
                    };
                    tails_finite &= r <= j || x.is_finite();
                }
            }
        }
        let t = larft_from_gram(&gram, &tau);
        let healthy = all_finite(t.as_slice()) && all_finite(&tau) && tails_finite;
        (WyTile { tau, t, healthy }, v)
    }

    /// [`factor_tile`] on a `rows x width` tile inside a taller matrix is
    /// bit-identical to [`factor_tile_elementwise`]: the whole matrix
    /// (the tile and the rows around it), `V`, `T`, `tau` and `healthy`.
    /// With `poison`, the arena's pools are filled with NaN first, and the
    /// `V` block always starts as NaN, so an element the blocked copies
    /// skip shows up.
    fn check_blocked_copies<T: Scalar>(rows: usize, width: usize, seed: u64, poison: bool) {
        let ctx = format!(
            "f{} {rows}x{width} seed {seed}",
            8 * std::mem::size_of::<T>()
        );
        if poison {
            arena::poison_pools::<T>(T::from_f64(f64::NAN));
        }
        let a0 = dense::generate::uniform::<T>(rows + 11, width, seed);
        let tile = Tile { start: 5, rows };
        let mut a = a0.clone();
        let (wy, v) = factor_tile_owned(&mut a, tile, width);
        let mut a_ref = a0;
        let (wy_ref, v_ref) = factor_tile_elementwise(&mut a_ref, tile, width);
        assert_eq!(bits(a.as_slice()), bits(a_ref.as_slice()), "{ctx} A");
        assert_eq!(bits(v.as_slice()), bits(v_ref.as_slice()), "{ctx} V");
        assert_eq!(bits(wy.t.as_slice()), bits(wy_ref.t.as_slice()), "{ctx} T");
        assert_eq!(bits(&wy.tau), bits(&wy_ref.tau), "{ctx} tau");
        assert_eq!(wy.healthy, wy_ref.healthy, "{ctx} healthy");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The blocked pack and unpack move the same bits as the
        /// element-by-element copies, in both precisions, on tiles that
        /// are short and wide (`k < width`), within the blocking budget
        /// and beyond it, with rows and widths of any remainder mod 8.
        #[test]
        fn blocked_copies_match_elementwise_copies(
            rows in 1usize..700,
            short in 0u8..4,
            width in 1usize..41,
            seed in 0u64..1000,
            poison in 0u8..2,
            single in 0u8..2,
        ) {
            // One case in four is at most 40 rows, so some tiles are
            // shorter than wide.
            let rows = if short == 0 { rows % 40 + 1 } else { rows };
            if single == 1 {
                check_blocked_copies::<f32>(rows, width, seed, poison == 1);
            } else {
                check_blocked_copies::<f64>(rows, width, seed, poison == 1);
            }
        }
    }

    /// Fixed shapes for the same check: ragged rows and columns on the
    /// unblocked sweep (45x13) and on the blocked factor (342x12, 517x21),
    /// a tile shorter than wide (5x11) and a full-block 512x32 tile.
    #[test]
    fn blocked_copies_match_elementwise_on_ragged_shapes() {
        for (rows, width) in [(45, 13), (5, 11), (342, 12), (517, 21), (512, 32)] {
            check_blocked_copies::<f64>(rows, width, 1, true);
            check_blocked_copies::<f32>(rows, width, 2, true);
        }
    }

    /// One infinite entry in the tile, in a full block below the diagonal,
    /// in the top `k` rows or in a ragged edge, makes the tile unhealthy,
    /// and the apply then takes the per-reflector `larf` path: its result
    /// is exactly `dense::householder::apply_q2`'s.
    #[test]
    fn infinite_entry_makes_tile_unhealthy_and_apply_falls_back_to_larf() {
        for (rows, width) in [(45, 13), (342, 12)] {
            for (r, j) in [(rows - 20, 3), (5, 2), (rows - 2, width - 1)] {
                let ctx = format!("{rows}x{width} Inf at ({r},{j})");
                let mut a = dense::generate::uniform::<f64>(rows, width, 4);
                a[(r, j)] = f64::INFINITY;
                let tile = Tile { start: 0, rows };
                let (wy, v) = factor_tile_owned(&mut a, tile, width);
                assert!(!wy.healthy, "{ctx}");
                let c0m = dense::generate::uniform::<f64>(rows, 3, 5);
                let mut c = c0m.clone();
                apply_tile_wy(&wy, v.as_ref(), MatPtr::new(&mut c), tile, 0, 3, true);
                let mut want = c0m;
                dense::householder::apply_q2(v.as_ref(), &wy.tau, true, want.as_mut());
                for (x, y) in c.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "{ctx}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// Bitwise against `geqr2` + `extract_v` + `larft`, over every dot arm of
    /// the factor sweep: widths 8/16/32 take `dot_rows_w`'s unrolled bodies,
    /// 6 and 12 the generic one, and 33 rows leave an odd remainder. These
    /// tiles fit `factor_l1_bytes` and take the unblocked sweep; the 512x32
    /// tile does not, and its blocked factor is held to rounding bounds.
    #[test]
    fn factor_tile_equals_geqr2() {
        for (rows, width) in [(40, 6), (33, 8), (48, 16), (64, 32), (96, 12)] {
            let ctx = format!("{rows}x{width}");
            let mut a = dense::generate::uniform::<f64>(rows + 16, width, rows as u64);
            let reference = a.clone();
            let tile = Tile { start: 8, rows };
            let (wy, v) = factor_tile_owned(&mut a, tile, width);
            let mut want = reference.extract(8, 0, rows, width);
            let mut tau_want = vec![0.0; width.min(rows)];
            dense::householder::geqr2(want.as_mut(), &mut tau_want);
            let v_want = extract_v(want.as_ref(), width.min(rows));
            assert_eq!(bits(&wy.tau), bits(&tau_want), "{ctx} tau");
            assert_eq!(
                bits(a.extract(8, 0, rows, width).as_slice()),
                bits(want.as_slice()),
                "{ctx} factored tile"
            );
            assert_eq!(bits(v.as_slice()), bits(v_want.as_slice()), "{ctx} V");
            assert_eq!(
                bits(wy.t.as_slice()),
                bits(larft(want.as_ref(), &tau_want).as_slice()),
                "{ctx} T"
            );
            // Rows outside the tile untouched.
            for j in 0..width {
                for i in (0..8).chain(rows + 8..rows + 16) {
                    assert_eq!(a[(i, j)], reference[(i, j)], "{ctx} ({i},{j})");
                }
            }
        }
        check_blocked_factor_tile(512, 32);
    }

    /// The smallest blocked tile, with a ragged last block (12 = 8 + 4):
    /// one row more than `factor_l1_bytes::<f64>()` holds. Its rows (342 =
    /// 42·8 + 6) and columns leave ragged 8x8 copy blocks too, so the
    /// bitwise copy check runs the blocked pack and unpack on full blocks,
    /// diagonal blocks and both ragged edges.
    #[test]
    fn blocked_factor_tile_smallest_shape() {
        let width = 12;
        let rows = dense::householder::factor_l1_bytes::<f64>() / (width * 8) + 1;
        check_blocked_factor_tile(rows, width);
        check_blocked_copies::<f64>(rows, width, 3, true);
    }

    /// A tile too large for `factor_l1_bytes::<f64>()`, factored blockwise, against
    /// `geqr2` to rounding: `Q = I - V T V^T` built from the kernel's own
    /// `V` and `T` reconstructs the tile (backward error) and is orthogonal,
    /// each within `2·n·ε`; `R` and `tau` agree with `geqr2`'s within the
    /// same relative bound; rows outside the tile are untouched.
    fn check_blocked_factor_tile(rows: usize, width: usize) {
        assert!(rows * width * 8 > dense::householder::factor_l1_bytes::<f64>());
        let ctx = format!("{rows}x{width}");
        let bound = 2.0 * width as f64 * f64::EPSILON;
        let mut a = dense::generate::uniform::<f64>(rows + 16, width, rows as u64);
        let reference = a.clone();
        let tile = Tile { start: 8, rows };
        let (wy, v) = factor_tile_owned(&mut a, tile, width);
        assert!(wy.healthy, "{ctx} healthy");
        let a0 = reference.extract(8, 0, rows, width);
        let factored = a.extract(8, 0, rows, width);
        let r = factored.upper_triangular();
        let mut want = a0.clone();
        let mut tau_want = vec![0.0; width];
        dense::householder::geqr2(want.as_mut(), &mut tau_want);
        // Q [R; 0] and Q [I; 0] through the tile's compact-WY factors.
        let whole = Tile { start: 0, rows };
        let mut qr = Matrix::from_fn(rows, width, |i, j| if i < width { r[(i, j)] } else { 0.0 });
        apply_tile_wy(
            &wy,
            v.as_ref(),
            MatPtr::new(&mut qr),
            whole,
            0,
            width,
            false,
        );
        let mut q = Matrix::from_fn(rows, width, |i, j| if i == j { 1.0 } else { 0.0 });
        apply_tile_wy(&wy, v.as_ref(), MatPtr::new(&mut q), whole, 0, width, false);
        let norm = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff = |x: &[f64], y: &[f64]| {
            x.iter()
                .zip(y)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let backward = diff(qr.as_slice(), a0.as_slice()) / norm(&a0);
        let orth = dense::norms::orthogonality_error(&q);
        let r_err = diff(r.as_slice(), want.upper_triangular().as_slice()) / norm(&a0);
        let tau_err = diff(&wy.tau, &tau_want);
        for (metric, x) in [
            ("backward error", backward),
            ("orthogonality", orth),
            ("R vs geqr2", r_err),
            ("tau vs geqr2", tau_err),
        ] {
            assert!(x <= bound, "{ctx} {metric} {x:.3e} > {bound:.3e}");
        }
        // V is the explicit unit lower trapezoid of the factored tile.
        for j in 0..width {
            for i in 0..rows {
                let want = match i.cmp(&j) {
                    std::cmp::Ordering::Less => 0.0,
                    std::cmp::Ordering::Equal => 1.0,
                    std::cmp::Ordering::Greater => factored[(i, j)],
                };
                assert_eq!(v[(i, j)].to_bits(), want.to_bits(), "{ctx} V ({i},{j})");
            }
        }
        for j in 0..width {
            for i in (0..8).chain(rows + 8..rows + 16) {
                assert_eq!(a[(i, j)], reference[(i, j)], "{ctx} ({i},{j})");
            }
        }
    }

    #[test]
    fn wy_apply_matches_per_reflector_apply() {
        let mut panel = dense::generate::uniform::<f64>(64, 4, 2);
        let tiles = tile_panel(0, 64, 32, 4);
        let wys: Vec<(WyTile<f64>, Matrix<f64>)> = tiles
            .iter()
            .map(|&t| factor_tile_owned(&mut panel, t, 4))
            .collect();
        let c0m = dense::generate::uniform::<f64>(64, 3, 3);
        let mut c_wy = c0m.clone();
        let mut c_ref = c0m.clone();
        for (t, (wy, v)) in tiles.iter().zip(&wys) {
            apply_tile_wy(wy, v.as_ref(), MatPtr::new(&mut c_wy), *t, 0, 3, true);
            apply_tile_reflectors(
                MatPtr::new_readonly(&panel),
                MatPtr::new(&mut c_ref),
                *t,
                0,
                4,
                &wy.tau,
                0,
                3,
                true,
            );
        }
        for (x, y) in c_wy.as_slice().iter().zip(c_ref.as_slice()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn apply_round_trip_via_blockops() {
        let mut panel = dense::generate::uniform::<f64>(64, 4, 2);
        let tiles = tile_panel(0, 64, 32, 4);
        let wys: Vec<(WyTile<f64>, Matrix<f64>)> = tiles
            .iter()
            .map(|&t| factor_tile_owned(&mut panel, t, 4))
            .collect();
        let c0m = dense::generate::uniform::<f64>(64, 3, 3);
        let mut c = c0m.clone();
        for (t, (wy, v)) in tiles.iter().zip(&wys) {
            apply_tile_wy(wy, v.as_ref(), MatPtr::new(&mut c), *t, 0, 3, true);
        }
        for (t, (wy, v)) in tiles.iter().zip(&wys) {
            apply_tile_wy(wy, v.as_ref(), MatPtr::new(&mut c), *t, 0, 3, false);
        }
        for (x, y) in c.as_slice().iter().zip(c0m.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn tree_node_top_v_block_is_exact_identity() {
        // The structural claim apply_stacked_wy relies on: after geqr2 of
        // stacked upper triangles, the leader block's sub-diagonal is
        // *bitwise* zero, and every lower block stays upper triangular.
        let mut a = Matrix::<f64>::zeros(96, 5);
        for (t, r0) in [0usize, 32, 64].into_iter().enumerate() {
            for j in 0..5 {
                for i in 0..=j {
                    a[(r0 + i, j)] =
                        ((t * 17 + i * 5 + j) % 11) as f64 - 5.0 + if i == j { 7.0 } else { 0.0 };
                }
            }
        }
        let node = factor_tree_group(MatPtr::new(&mut a), &[0, 32, 64], 0, 5);
        for j in 0..5 {
            for i in j + 1..5 {
                assert_eq!(node.u[(i, j)], 0.0, "leader sub-diagonal ({i},{j})");
                assert_eq!(node.u[(5 + i, j)], 0.0, "block-1 below-triangle ({i},{j})");
                assert_eq!(node.u[(10 + i, j)], 0.0, "block-2 below-triangle ({i},{j})");
            }
        }
    }

    #[test]
    fn unhealthy_wy_tile_falls_back_to_larf_and_matches() {
        // Poison the cached T of a healthy tile: the apply must detect the
        // breakdown flag and produce the same result via the larf path.
        let mut panel = dense::generate::uniform::<f64>(32, 4, 11);
        let tile = Tile { start: 0, rows: 32 };
        let (wy, v) = factor_tile_owned(&mut panel, tile, 4);
        assert!(wy.healthy, "well-conditioned tile must be healthy");
        let mut broken = wy.clone();
        broken.t[(0, 0)] = f64::NAN;
        broken.healthy = false;
        let c0m = dense::generate::uniform::<f64>(32, 3, 12);
        for transpose in [true, false] {
            let mut c_good = c0m.clone();
            apply_tile_wy(
                &wy,
                v.as_ref(),
                MatPtr::new(&mut c_good),
                tile,
                0,
                3,
                transpose,
            );
            let mut c_fallback = c0m.clone();
            apply_tile_wy(
                &broken,
                v.as_ref(),
                MatPtr::new(&mut c_fallback),
                tile,
                0,
                3,
                transpose,
            );
            for (x, y) in c_good.as_slice().iter().zip(c_fallback.as_slice()) {
                assert!(
                    (x - y).abs() < 1e-12 && y.is_finite(),
                    "transpose={transpose}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn unhealthy_tree_node_falls_back_to_larf_and_matches() {
        let mut a = Matrix::<f64>::zeros(64, 4);
        for (t, r0) in [0usize, 32].into_iter().enumerate() {
            for j in 0..4 {
                for i in 0..=j {
                    a[(r0 + i, j)] =
                        ((t * 7 + i * 3 + j) % 9) as f64 - 4.0 + if i == j { 6.0 } else { 0.0 };
                }
            }
        }
        let node = factor_tree_group(MatPtr::new(&mut a), &[0, 32], 0, 4);
        assert!(node.healthy);
        let mut broken = node.clone();
        broken.tmat[(0, 0)] = f64::INFINITY;
        broken.healthy = false;
        let c0 = dense::generate::uniform::<f64>(8, 2, 13);
        for transpose in [true, false] {
            let mut c_good = c0.clone();
            apply_stacked_wy(&node, 4, c_good.as_mut(), transpose);
            let mut c_fb = c0.clone();
            apply_stacked_wy(&broken, 4, c_fb.as_mut(), transpose);
            for (x, y) in c_good.as_slice().iter().zip(c_fb.as_slice()) {
                assert!((x - y).abs() < 1e-12 && y.is_finite());
            }
        }
    }

    /// The reference for [`apply_tree_node`]: gather the member strips
    /// element by element, [`apply_stacked_wy`] the stack, scatter it
    /// back the same way.
    fn apply_tree_node_gathered<T: Scalar>(
        c: &mut Matrix<T>,
        node: &TreeNode<T>,
        w: usize,
        c0: usize,
        wc: usize,
        transpose: bool,
    ) {
        let rows = node.members.len() * w;
        let mut stack = Matrix::from_fn(rows, wc, |r, j| c[(node.members[r / w] + r % w, c0 + j)]);
        apply_stacked_wy(node, w, stack.as_mut(), transpose);
        for r in 0..rows {
            for j in 0..wc {
                c[(node.members[r / w] + r % w, c0 + j)] = stack[(r, j)];
            }
        }
    }

    /// The in-place tree apply (member strips read and written in the
    /// matrix) equals gather/apply/scatter bit for bit, in both
    /// precisions and directions. Widths 16 and 32 take the in-place path,
    /// 8 (`w x wc x w` below the packed-GEMM threshold) and a broken node
    /// the gathered one; ragged column blocks of 13 and 5 columns leave
    /// partial register tiles, and the margin around the strips must stay
    /// untouched.
    fn check_tree_apply_in_place<T: Scalar>(w: usize, broken: bool) {
        let members = [4usize, 4 + 3 * w, 9 + 5 * w];
        let m = 12 + 7 * w;
        let mut a = Matrix::<T>::zeros(m, w);
        for (t, &r0) in members.iter().enumerate() {
            for j in 0..w {
                for i in 0..=j {
                    a[(r0 + i, j)] = T::from_f64(
                        ((t * 13 + i * 3 + j * 7) % 17) as f64 / 4.0 - 2.0
                            + if i == j { 6.0 } else { 0.0 },
                    );
                }
            }
        }
        let mut node = factor_tree_group(MatPtr::new(&mut a), &members, 0, w);
        assert!(node.healthy);
        if broken {
            node.tmat[(0, 0)] = T::from_f64(f64::NAN);
            node.healthy = false;
        }
        for (c0, wc) in [(1, 13), (3, 5), (0, 32)] {
            for transpose in [true, false] {
                let ctx = format!("w {w} broken {broken} wc {wc} transpose {transpose}");
                let c = dense::generate::uniform::<T>(m, 36, (w + wc) as u64);
                let mut got = c.clone();
                apply_tree_node(MatPtr::new(&mut got), &node, w, c0, wc, transpose);
                let mut want = c;
                apply_tree_node_gathered(&mut want, &node, w, c0, wc, transpose);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{ctx}");
            }
        }
    }

    #[test]
    fn in_place_tree_apply_matches_gather_apply_scatter() {
        for w in [8, 16, 32] {
            check_tree_apply_in_place::<f64>(w, false);
            check_tree_apply_in_place::<f32>(w, false);
        }
        check_tree_apply_in_place::<f64>(16, true);
    }

    #[test]
    fn stacked_wy_matches_per_reflector_on_tree_node() {
        let mut a = Matrix::<f64>::zeros(96, 6);
        for (t, r0) in [0usize, 48].into_iter().enumerate() {
            for j in 0..6 {
                for i in 0..=j {
                    a[(r0 + i, j)] = ((t * 13 + i * 3 + j * 7) % 17) as f64 - 8.0
                        + if i == j { 10.0 } else { 0.0 };
                }
            }
        }
        let node = factor_tree_group(MatPtr::new(&mut a), &[0, 48], 0, 6);
        for transpose in [true, false] {
            let c0 = dense::generate::uniform::<f64>(12, 4, 7);
            let mut c_wy = c0.clone();
            apply_stacked_wy(&node, 6, c_wy.as_mut(), transpose);
            let mut c_ref = c0.clone();
            dense::householder::apply_q2(node.u.as_ref(), &node.tau, transpose, c_ref.as_mut());
            for (x, y) in c_wy.as_slice().iter().zip(c_ref.as_slice()) {
                assert!((x - y).abs() < 1e-12, "transpose={transpose}: {x} vs {y}");
            }
        }
    }
}
