//! Shared mutable matrix handle for data-parallel tile kernels.
//!
//! A GPU kernel launch gives every thread block mutable access to its own
//! disjoint tile of one matrix in global memory. Rust's borrow checker cannot
//! express "disjoint tiles of one allocation decided at runtime", so the
//! simulator uses this small unsafe core: a raw column-major pointer plus
//! shape, `Send + Sync`, with all bounds checked (always, not only in debug
//! builds — the cost of the check is irrelevant next to the simulated work).
//! CI additionally runs this module's tests (and the `blas3` packed-GEMM
//! tests that lean on it) under Miri to catch undefined behaviour the
//! asserts cannot.
//!
//! # Safety contract
//!
//! A [`MatPtr`] may only be used inside a kernel launch whose grid assigns
//! **disjoint** element sets to different blocks, and the borrowed matrix
//! must outlive the launch. The launch APIs in `gpu-sim` uphold the lifetime
//! part by scoping execution; grid disjointness is asserted by the kernel
//! constructors in the `caqr` crate (each block index maps to a unique tile).

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Edge of the square blocks [`MatPtr::load_tile_transposed`] and
/// [`MatPtr::store_factored_transposed`] transpose in registers.
const TILE_BLOCK: usize = 8;

/// Where one block of [`MatPtr::store_factored_transposed`] sits: its first
/// row and column in the tile, its extent, and how many of its columns
/// carry a reflector.
#[derive(Clone, Copy)]
struct Block {
    rb: usize,
    cb: usize,
    nrb: usize,
    ncb: usize,
    kv: usize,
}

/// Unsafe shared-mutable view of a column-major matrix, used as the
/// simulator's "global memory" pointer.
#[derive(Clone, Copy)]
pub struct MatPtr<T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
}

// SAFETY: `MatPtr` is only handed to kernels that write disjoint tiles (see
// module docs); reads of elements written by other blocks within one launch
// are forbidden by the same contract, so there are no data races.
unsafe impl<T: Send> Send for MatPtr<T> {}
unsafe impl<T: Sync> Sync for MatPtr<T> {}

impl<T: Scalar> MatPtr<T> {
    /// Capture a matrix. The caller promises the matrix outlives every use
    /// of the returned handle and that concurrent users touch disjoint tiles.
    pub fn new(m: &mut Matrix<T>) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            ld: m.rows(),
            ptr: m.as_mut_slice().as_mut_ptr(),
        }
    }

    /// Build a handle from raw parts, e.g. over a `MatMut` view with a
    /// leading dimension (`MatMut::as_mut_ptr` + `MatMut::ld`).
    ///
    /// # Safety
    /// `ptr` must point at a column-major matrix of `rows x cols` elements
    /// with leading dimension `ld` that outlives every use of the handle;
    /// concurrent users must touch disjoint tiles per the module contract.
    pub unsafe fn from_raw_parts(ptr: *mut T, rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1));
        Self {
            ptr,
            rows,
            cols,
            ld,
        }
    }

    /// Capture a matrix for read-only kernel use (e.g. the Householder
    /// vectors of an already-factored panel applied to a different matrix).
    ///
    /// The caller promises `set`/`store_tile` are never invoked on the
    /// returned handle, and that no other handle mutates the matrix during
    /// this handle's lifetime; under that contract the const-to-mut cast is
    /// never used for writing.
    pub fn new_readonly(m: &Matrix<T>) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            ld: m.rows(),
            ptr: m.as_slice().as_ptr() as *mut T,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline(always)]
    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(
            i < self.rows && j < self.cols,
            "MatPtr index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        let off = j * self.ld + i;
        // Defense in depth for handles built via `from_raw_parts`: the
        // linear offset must stay inside the ld x cols footprint even if a
        // caller lied about the shape. (Free in release; the Miri CI job
        // runs these tests with the checks on.)
        debug_assert!(off < self.ld * self.cols.max(1), "MatPtr offset overflow");
        off
    }

    /// Leading dimension (elements between the starts of two columns).
    #[inline(always)]
    pub(crate) fn ld(&self) -> usize {
        self.ld
    }

    /// Pointer to `(i, j)`, the first element of the `nr x nc` region
    /// there, after checking that the region lies inside the matrix.
    pub(crate) fn region_ptr(&self, i: usize, j: usize, nr: usize, nc: usize) -> *mut T {
        assert!(
            i + nr <= self.rows && j + nc <= self.cols,
            "region {nr}x{nc} at ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        // The offset stays inside the `ld x cols` footprint checked above
        // (`wrapping_add` keeps a zero-extent region at the end legal).
        self.ptr.wrapping_add(j * self.ld + i)
    }

    /// The `len` elements of column `j` from row `i`, as a slice.
    ///
    /// # Safety
    /// No other block may write the segment while the slice lives.
    #[inline]
    pub unsafe fn col_segment<'a>(&self, i: usize, j: usize, len: usize) -> &'a [T] {
        std::slice::from_raw_parts(self.region_ptr(i, j, len, 1), len)
    }

    /// The `len` elements of column `j` from row `i`, as a mutable slice:
    /// the slice spans that one column segment only, never memory between
    /// columns that other blocks may own.
    ///
    /// # Safety
    /// The segment must belong exclusively to the calling block, and no
    /// other reference to it may be live while the slice lives.
    #[inline]
    pub unsafe fn col_segment_mut<'a>(&self, i: usize, j: usize, len: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.region_ptr(i, j, len, 1), len)
    }

    /// Read element `(i, j)`.
    ///
    /// # Safety
    /// See the module-level contract: the element must not be concurrently
    /// written by another block in the same launch.
    #[inline(always)]
    pub unsafe fn get(&self, i: usize, j: usize) -> T {
        *self.ptr.add(self.idx(i, j))
    }

    /// Write element `(i, j)`.
    ///
    /// # Safety
    /// See the module-level contract: the element must belong to the calling
    /// block's tile.
    #[inline(always)]
    pub unsafe fn set(&self, i: usize, j: usize, v: T) {
        *self.ptr.add(self.idx(i, j)) = v;
    }

    /// Copy the `nr x nc` tile at `(r0, c0)` into `dst` (column-major,
    /// tightly packed with leading dimension `nr`). Returns bytes moved.
    ///
    /// # Safety
    /// The tile must not be concurrently written by another block.
    pub unsafe fn load_tile(
        &self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        dst: &mut [T],
    ) -> u64 {
        assert!(dst.len() >= nr * nc, "tile buffer too small");
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "tile out of range"
        );
        for j in 0..nc {
            debug_assert!((c0 + j) * self.ld + r0 + nr <= self.ld * self.cols);
            let src = self.ptr.add((c0 + j) * self.ld + r0);
            std::ptr::copy_nonoverlapping(src, dst.as_mut_ptr().add(j * nr), nr);
        }
        nr as u64 * nc as u64 * T::BYTES
    }

    /// Copy the `nr x nc` tile at `(r0, c0)` into `dst` **row-major**
    /// (`dst[r * nc + j] = A(r0 + r, c0 + j)`) — the pre-transposed packing
    /// of the strategy-4 factor micro-kernel, done in a single pass over the
    /// source with no intermediate column-major staging buffer. Returns
    /// bytes moved.
    ///
    /// Full 8x8 blocks are transposed in registers: 8
    /// contiguous column segments in, 8 whole packed row segments out. The
    /// ragged last rows and columns are copied one element at a time.
    ///
    /// # Safety
    /// The tile must not be concurrently written by another block.
    pub unsafe fn load_tile_transposed(
        &self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        dst: &mut [T],
    ) -> u64 {
        const B: usize = TILE_BLOCK;
        assert!(dst.len() >= nr * nc, "tile buffer too small");
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "tile out of range"
        );
        debug_assert!(nc == 0 || (c0 + nc - 1) * self.ld + r0 + nr <= self.ld * self.cols);
        let src = self.ptr.add(c0 * self.ld + r0);
        let (nrf, ncf) = (nr - nr % B, nc - nc % B);
        // Column blocks outer: the 8 source columns of a block are read as
        // 8 sequential streams down the tile.
        for cb in (0..ncf).step_by(B) {
            for rb in (0..nrf).step_by(B) {
                // SAFETY: rows `rb..rb + B` and columns `cb..cb + B` lie
                // inside the tile checked above.
                let blk: [[T; B]; B] =
                    std::array::from_fn(|c| *src.add((cb + c) * self.ld + rb).cast::<[T; B]>());
                for (r, d) in dst[rb * nc..(rb + B) * nc].chunks_exact_mut(nc).enumerate() {
                    let d: &mut [T; B] = (&mut d[cb..cb + B]).try_into().expect("full block");
                    *d = std::array::from_fn(|c| blk[c][r]);
                }
            }
        }
        // Ragged edges: the last `nr % B` rows of every column, and every
        // row of the last `nc % B` columns.
        for j in 0..nc {
            // SAFETY: column `j < nc` of the checked tile.
            let col = src.add(j * self.ld);
            let first = if j < ncf { nrf } else { 0 };
            for r in first..nr {
                dst[r * nc + j] = *col.add(r);
            }
        }
        nr as u64 * nc as u64 * T::BYTES
    }

    /// Unpack a factored pre-transposed tile: `src` (**row-major**,
    /// `src[r * nc + j]`) as left by the strategy-4 factor, with `R` on and
    /// above the diagonal and the reflector tails below it. One pass over
    /// 8x8 blocks writes the whole tile to `(r0, c0)` and
    /// the explicit reflectors to `v`, the `nr x min(nr, nc)` `V` block: the
    /// unit diagonal, zeros above it and the tails below. Each block is
    /// transposed once, in registers, and both destinations are written
    /// from it; ragged blocks run the same code at their own extent.
    ///
    /// Returns whether every reflector tail entry is finite. The check
    /// accumulates `x - x`, exactly `+0.0` for finite `x` and NaN
    /// otherwise, into one lane per block row, so it stays off the store
    /// path; entries on and above the diagonal are not checked.
    ///
    /// # Safety
    /// The tile and the `V` block must belong exclusively to the calling
    /// block.
    pub unsafe fn store_factored_transposed(
        &self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        src: &[T],
        v: MatPtr<T>,
    ) -> bool {
        const B: usize = TILE_BLOCK;
        let k = nr.min(nc);
        assert!(src.len() >= nr * nc, "tile buffer too small");
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "tile out of range"
        );
        assert!(
            v.rows == nr && v.cols == k,
            "V block is {}x{}, tile needs {nr}x{k}",
            v.rows,
            v.cols
        );
        debug_assert!(nc == 0 || (c0 + nc - 1) * self.ld + r0 + nr <= self.ld * self.cols);
        let a = self.ptr.add(c0 * self.ld + r0);
        let mut tails = [T::ZERO; B];
        for cb in (0..nc).step_by(B) {
            let ncb = B.min(nc - cb);
            // Columns of this block that carry a reflector (all of them
            // unless the tile is wider than tall).
            let kv = k.saturating_sub(cb).min(ncb);
            for rb in (0..nr).step_by(B) {
                let nrb = B.min(nr - rb);
                let blk = Block {
                    rb,
                    cb,
                    nrb,
                    ncb,
                    kv,
                };
                // SAFETY: the block lies inside the tile and the V block
                // checked above.
                if nrb == B && ncb == B {
                    self.store_factored_block(
                        a,
                        src,
                        nc,
                        v,
                        Block {
                            nrb: B,
                            ncb: B,
                            ..blk
                        },
                        &mut tails,
                    );
                } else {
                    self.store_factored_block(a, src, nc, v, blk, &mut tails);
                }
            }
        }
        tails.iter().all(|&x| x == T::ZERO)
    }

    /// One block of [`Self::store_factored_transposed`]; inlined twice, so
    /// full blocks run at compile-time extents.
    ///
    /// # Safety
    /// `a` points at the tile's `(0, 0)` in this matrix, and the block lies
    /// inside the tile, `src` and `v`.
    #[inline(always)]
    #[allow(clippy::eq_op)] // the `x - x` probe is +0.0 iff `x` is finite, NaN otherwise
    unsafe fn store_factored_block(
        &self,
        a: *mut T,
        src: &[T],
        nc: usize,
        v: MatPtr<T>,
        blk: Block,
        tails: &mut [T; TILE_BLOCK],
    ) {
        const B: usize = TILE_BLOCK;
        let Block {
            rb,
            cb,
            nrb,
            ncb,
            kv,
        } = blk;
        // tb[c][r] = src(rb + r, cb + c); lanes past a ragged edge stay
        // zero, so they add nothing to `tails`.
        let mut tb = [[T::ZERO; B]; B];
        for (r, row) in src[rb * nc..(rb + nrb) * nc].chunks_exact(nc).enumerate() {
            for (c, &x) in row[cb..cb + ncb].iter().enumerate() {
                tb[c][r] = x;
            }
        }
        for (c, col) in tb.iter().enumerate().take(ncb) {
            // SAFETY: rows `rb..rb + nrb` of tile column `cb + c` are inside
            // the tile (caller contract).
            std::ptr::copy_nonoverlapping(col.as_ptr(), a.add((cb + c) * self.ld + rb), nrb);
        }
        // Block rows and columns both start at multiples of `B`, so a block
        // is wholly below the diagonal, wholly above it, or on it.
        for (c, col) in tb.iter().enumerate().take(kv) {
            let vcol: [T; B] = if rb > cb {
                for (t, &x) in tails.iter_mut().zip(col) {
                    *t += x - x;
                }
                *col
            } else if rb < cb {
                [T::ZERO; B]
            } else {
                for (r, (t, &x)) in tails.iter_mut().zip(col).enumerate() {
                    *t += if r > c { x - x } else { T::ZERO };
                }
                std::array::from_fn(|r| match r.cmp(&c) {
                    std::cmp::Ordering::Greater => col[r],
                    std::cmp::Ordering::Equal => T::ONE,
                    std::cmp::Ordering::Less => T::ZERO,
                })
            };
            // SAFETY: `cb + c < kv + cb <= k` is a column of the `V` block and
            // rows `rb..rb + nrb` are inside it (caller contract).
            std::ptr::copy_nonoverlapping(vcol.as_ptr(), v.ptr.add((cb + c) * v.ld + rb), nrb);
        }
    }

    /// Write `src` (column-major, leading dimension `nr`) to the tile at
    /// `(r0, c0)`. Returns bytes moved.
    ///
    /// # Safety
    /// The tile must belong exclusively to the calling block.
    pub unsafe fn store_tile(&self, r0: usize, c0: usize, nr: usize, nc: usize, src: &[T]) -> u64 {
        assert!(src.len() >= nr * nc, "tile buffer too small");
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "tile out of range"
        );
        for j in 0..nc {
            debug_assert!((c0 + j) * self.ld + r0 + nr <= self.ld * self.cols);
            let dst = self.ptr.add((c0 + j) * self.ld + r0);
            std::ptr::copy_nonoverlapping(src.as_ptr().add(j * nr), dst, nr);
        }
        nr as u64 * nc as u64 * T::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn disjoint_parallel_tiles() {
        let mut m = Matrix::<f64>::zeros(64, 8);
        let p = MatPtr::new(&mut m);
        // 8 blocks each own an 8-row tile; write block id everywhere.
        (0..8u64).into_par_iter().for_each(|b| {
            let r0 = (b as usize) * 8;
            for j in 0..8 {
                for i in 0..8 {
                    unsafe { p.set(r0 + i, j, b as f64) };
                }
            }
        });
        for b in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    assert_eq!(m[(b * 8 + i, j)], b as f64);
                }
            }
        }
    }

    #[test]
    fn tile_load_store_round_trip() {
        let mut m = Matrix::from_fn(10, 10, |i, j| (i * 100 + j) as f32);
        let orig = m.clone();
        let p = MatPtr::new(&mut m);
        let mut buf = vec![0.0f32; 12];
        unsafe {
            let read = p.load_tile(2, 3, 4, 3, &mut buf);
            assert_eq!(read, 48);
            // Perturb then restore.
            for v in buf.iter_mut() {
                *v += 1.0;
            }
            p.store_tile(2, 3, 4, 3, &buf);
        }
        assert_eq!(m[(2, 3)], orig[(2, 3)] + 1.0);
        assert_eq!(m[(5, 5)], orig[(5, 5)] + 1.0);
        assert_eq!(m[(0, 0)], orig[(0, 0)]);
    }

    /// A `rows x cols` matrix whose entries are all distinct, and a tile of
    /// it away from the matrix edges.
    fn numbered(rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |i, j| (i * 1000 + j) as f64 + 0.5)
    }

    /// The blocked pack equals the elementwise transpose on full 8x8 blocks
    /// and on ragged edges of either side, and on tiles narrower or
    /// shorter than one block.
    #[test]
    fn transposed_pack_matches_elementwise() {
        for (nr, nc) in [(19, 13), (16, 8), (5, 11), (8, 3), (1, 1)] {
            let mut m = numbered(nr + 5, nc + 2);
            let p = MatPtr::new(&mut m);
            let mut dst = vec![f64::NAN; nr * nc];
            let moved = unsafe { p.load_tile_transposed(3, 1, nr, nc, &mut dst) };
            assert_eq!(moved, (nr * nc * 8) as u64);
            for r in 0..nr {
                for j in 0..nc {
                    assert_eq!(dst[r * nc + j], m[(3 + r, 1 + j)], "{nr}x{nc} ({r},{j})");
                }
            }
        }
    }

    /// The blocked unpack writes every tile element and the explicit `V`
    /// (unit diagonal, zeros above, tails below) into NaN-filled
    /// destinations, leaves everything outside the tile alone, and
    /// reports finite tails. Shapes cover ragged rows and columns, a tile
    /// wider than tall (`V` has fewer columns than the tile) and one
    /// shorter than a block.
    #[test]
    fn factored_unpack_writes_tile_and_v() {
        for (nr, nc) in [(21, 13), (16, 16), (6, 11), (12, 9), (3, 2)] {
            let k = nr.min(nc);
            let src: Vec<f64> = (0..nr * nc).map(|i| i as f64 - 7.25).collect();
            let mut m = Matrix::from_fn(nr + 4, nc + 3, |_, _| f64::NAN);
            let mut v = Matrix::from_fn(nr, k, |_, _| f64::NAN);
            let finite = unsafe {
                MatPtr::new(&mut m).store_factored_transposed(
                    2,
                    1,
                    nr,
                    nc,
                    &src,
                    MatPtr::new(&mut v),
                )
            };
            assert!(finite, "{nr}x{nc}");
            for i in 0..nr + 4 {
                for j in 0..nc + 3 {
                    let inside = (2..nr + 2).contains(&i) && (1..nc + 1).contains(&j);
                    if inside {
                        assert_eq!(m[(i, j)], src[(i - 2) * nc + j - 1], "{nr}x{nc} A({i},{j})");
                    } else {
                        assert!(m[(i, j)].is_nan(), "{nr}x{nc} outside ({i},{j}) written");
                    }
                }
            }
            for r in 0..nr {
                for j in 0..k {
                    let want = match r.cmp(&j) {
                        std::cmp::Ordering::Less => 0.0,
                        std::cmp::Ordering::Equal => 1.0,
                        std::cmp::Ordering::Greater => src[r * nc + j],
                    };
                    assert_eq!(v[(r, j)].to_bits(), want.to_bits(), "{nr}x{nc} V({r},{j})");
                }
            }
        }
    }

    /// One infinite reflector-tail entry makes the unpack report the tile
    /// unhealthy wherever it sits: in a full block below the diagonal, in
    /// the top `k` rows (a diagonal block) and in a ragged edge. On or
    /// above the diagonal it is `R`, which the tail check does not read.
    #[test]
    fn factored_unpack_flags_one_infinite_tail() {
        let (nr, nc) = (21, 13);
        for (r, j, tail) in [
            (17, 3, true),  // full block below the diagonal
            (5, 2, true),   // top rows, diagonal block
            (10, 9, true),  // top rows, ragged column block
            (20, 12, true), // ragged row and column block
            (2, 5, false),  // R above the diagonal
            (9, 9, false),  // R on the diagonal
        ] {
            let mut src: Vec<f64> = (0..nr * nc).map(|i| i as f64).collect();
            src[r * nc + j] = f64::INFINITY;
            let mut m = Matrix::<f64>::zeros(nr, nc);
            let mut v = Matrix::<f64>::zeros(nr, nc);
            let finite = unsafe {
                MatPtr::new(&mut m).store_factored_transposed(
                    0,
                    0,
                    nr,
                    nc,
                    &src,
                    MatPtr::new(&mut v),
                )
            };
            assert_eq!(finite, !tail, "Inf at ({r},{j})");
            assert_eq!(m[(r, j)], f64::INFINITY);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_get_panics() {
        let mut m = Matrix::<f32>::zeros(4, 4);
        let p = MatPtr::new(&mut m);
        unsafe {
            p.get(4, 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_set_panics() {
        let mut m = Matrix::<f32>::zeros(4, 4);
        let p = MatPtr::new(&mut m);
        unsafe {
            p.set(0, 4, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "tile buffer too small")]
    fn undersized_tile_buffer_panics() {
        let mut m = Matrix::<f32>::zeros(8, 8);
        let p = MatPtr::new(&mut m);
        let mut buf = vec![0.0f32; 3];
        unsafe {
            p.load_tile(0, 0, 2, 2, &mut buf);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_tile_panics() {
        let mut m = Matrix::<f32>::zeros(4, 4);
        let p = MatPtr::new(&mut m);
        let mut buf = vec![0.0f32; 16];
        unsafe {
            p.load_tile(2, 2, 4, 4, &mut buf);
        }
    }
}
