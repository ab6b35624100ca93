//! Column-major matrix storage and borrowed views.
//!
//! Everything in the workspace stores matrices in column-major (Fortran/
//! LAPACK) order: element `(i, j)` of a matrix with leading dimension `ld`
//! lives at linear index `j * ld + i`. The owning type [`Matrix`] always has
//! `ld == rows`; views ([`MatRef`], [`MatMut`]) may have `ld > rows` so that
//! sub-panels of a larger matrix can be processed in place, which is how the
//! CAQR grid of blocks is addressed.

use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Owning column-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// All-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Identity-like matrix: ones on the main diagonal, zeros elsewhere
    /// (works for rectangular shapes, like LAPACK `laset` with alpha=0, beta=1).
    pub fn eye(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        for d in 0..rows.min(cols) {
            m[(d, d)] = T::ONE;
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from a column-major data vector. Panics unless
    /// `data.len() == rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from row-major data (convenient for literals in tests).
    pub fn from_row_major(rows: usize, cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self::from_fn(rows, cols, |i, j| data[i * cols + j])
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

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw column-major storage.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw column-major storage.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Immutable view of the whole matrix.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
        }
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows,
            data: &mut self.data,
        }
    }

    /// Immutable view of the `nr x nc` submatrix with top-left corner `(r0, c0)`.
    #[inline]
    pub fn view(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'_, T> {
        self.as_ref().submatrix(r0, c0, nr, nc)
    }

    /// Mutable view of the `nr x nc` submatrix with top-left corner `(r0, c0)`.
    #[inline]
    pub fn view_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_, T> {
        self.as_mut().submatrix_mut(r0, c0, nr, nc)
    }

    /// Owned transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copy of a submatrix as an owned matrix.
    pub fn extract(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix<T> {
        Matrix::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Overwrite the submatrix at `(r0, c0)` with `src`.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &Matrix<T>) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols);
        for j in 0..src.cols {
            for i in 0..src.rows {
                self[(r0 + i, c0 + j)] = src[(i, j)];
            }
        }
    }

    /// Upper-triangular copy of the leading `k x cols` part: entries below the
    /// main diagonal are zeroed (`k = min(rows, cols)` rows retained).
    pub fn upper_triangular(&self) -> Matrix<T> {
        let k = self.rows.min(self.cols);
        Matrix::from_fn(
            k,
            self.cols,
            |i, j| if i <= j { self[(i, j)] } else { T::ZERO },
        )
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.rows + i]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let rshow = self.rows.min(8);
        let cshow = self.cols.min(8);
        for i in 0..rshow {
            write!(f, "  ")?;
            for j in 0..cshow {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            if cshow < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if rshow < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Immutable borrowed view with an explicit leading dimension.
#[derive(Clone, Copy)]
pub struct MatRef<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Construct from raw parts. `data` must cover `(cols-1)*ld + rows` elements.
    pub fn from_parts(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1));
        if rows > 0 && cols > 0 {
            assert!(data.len() >= (cols - 1) * ld + rows);
        }
        Self {
            data,
            rows,
            cols,
            ld,
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
    /// Leading dimension.
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element accessor.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Column `j` (the `rows` live entries only).
    #[inline(always)]
    pub fn col(&self, j: usize) -> &'a [T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Subview.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'a, T> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "submatrix out of range"
        );
        let off = c0 * self.ld + r0;
        let end = if nr > 0 && nc > 0 {
            off + (nc - 1) * self.ld + nr
        } else {
            off
        };
        MatRef {
            data: &self.data[off..end],
            rows: nr,
            cols: nc,
            ld: self.ld,
        }
    }

    /// Copy into an owned matrix.
    pub fn to_owned(&self) -> Matrix<T> {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }
}

/// Mutable borrowed view with an explicit leading dimension.
pub struct MatMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Construct from raw parts. `data` must cover `(cols-1)*ld + rows` elements.
    pub fn from_parts(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1));
        if rows > 0 && cols > 0 {
            assert!(data.len() >= (cols - 1) * ld + rows);
        }
        Self {
            data,
            rows,
            cols,
            ld,
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
    /// Leading dimension.
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element accessor.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Set element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i] = v;
    }

    /// Mutable element reference.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.ld + i]
    }

    /// Raw mutable pointer to element `(0, 0)`. Pair with [`Self::ld`] to
    /// build shared handles (`MatPtr`) over disjoint blocks of this view.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.data.as_mut_ptr()
    }

    /// Column `j` immutably.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Column `j` mutably.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        let off = j * self.ld;
        &mut self.data[off..off + self.rows]
    }

    /// Immutable reborrow of the whole view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Mutable reborrow (lets a `MatMut` be passed to helpers repeatedly).
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Mutable subview (consumes the borrow; use through `rb_mut()` to keep it).
    pub fn submatrix_mut(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'a, T> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "submatrix out of range"
        );
        let off = c0 * self.ld + r0;
        let end = if nr > 0 && nc > 0 {
            off + (nc - 1) * self.ld + nr
        } else {
            off
        };
        MatMut {
            data: &mut self.data[off..end],
            rows: nr,
            cols: nc,
            ld: self.ld,
        }
    }

    /// Split into columns `[0, c)` and `[c, cols)`.
    pub fn split_at_col(self, c: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(c <= self.cols);
        // When ld > rows the storage ends `ld - rows` short of `cols * ld`;
        // splitting off the final (possibly empty) tail must clamp to len.
        let off = (c * self.ld).min(self.data.len());
        let (left, right) = self.data.split_at_mut(off);
        (
            MatMut {
                data: left,
                rows: self.rows,
                cols: c,
                ld: self.ld,
            },
            MatMut {
                data: right,
                rows: self.rows,
                cols: self.cols - c,
                ld: self.ld,
            },
        )
    }

    /// Overwrite every entry with `v`.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Copy into an owned matrix.
    pub fn to_owned(&self) -> Matrix<T> {
        self.as_ref().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_row_major(2, 3, &[1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
        // Column-major layout: first column is (1, 4).
        assert_eq!(m.col(0), &[1.0, 4.0]);
        assert_eq!(m.shape(), (2, 3));
    }

    #[test]
    fn eye_is_rectangular_identity() {
        let m = Matrix::<f32>::eye(4, 2);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 0)], 0.0);
        assert_eq!(m[(3, 1)], 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn views_address_submatrices() {
        let m = Matrix::from_fn(6, 6, |i, j| (i + 10 * j) as f64);
        let v = m.view(2, 3, 3, 2);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), m[(2, 3)]);
        assert_eq!(v.at(2, 1), m[(4, 4)]);
        // Column of a view respects the leading dimension.
        assert_eq!(v.col(1), &[m[(2, 4)], m[(3, 4)], m[(4, 4)]]);
    }

    #[test]
    fn view_mut_writes_through() {
        let mut m = Matrix::<f64>::zeros(4, 4);
        {
            let mut v = m.view_mut(1, 1, 2, 2);
            v.set(0, 0, 7.0);
            v.set(1, 1, 9.0);
        }
        assert_eq!(m[(1, 1)], 7.0);
        assert_eq!(m[(2, 2)], 9.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn split_at_col_partitions() {
        let mut m = Matrix::from_fn(3, 4, |i, j| (i + j) as f32);
        let mm = m.as_mut();
        let (mut l, mut r) = mm.split_at_col(1);
        assert_eq!(l.cols(), 1);
        assert_eq!(r.cols(), 3);
        l.set(0, 0, 100.0);
        r.set(0, 0, 200.0);
        assert_eq!(m[(0, 0)], 100.0);
        assert_eq!(m[(0, 1)], 200.0);
    }

    #[test]
    fn extract_paste_round_trip() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * j) as f64);
        let sub = m.extract(1, 2, 3, 2);
        let mut n = Matrix::<f64>::zeros(5, 5);
        n.paste(1, 2, &sub);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(n[(1 + i, 2 + j)], m[(1 + i, 2 + j)]);
            }
        }
    }

    #[test]
    fn upper_triangular_zeroes_strict_lower() {
        let m = Matrix::from_fn(4, 3, |i, j| (1 + i + j) as f64);
        let r = m.upper_triangular();
        assert_eq!(r.shape(), (3, 3));
        assert_eq!(r[(1, 0)], 0.0);
        assert_eq!(r[(2, 1)], 0.0);
        assert_eq!(r[(0, 2)], m[(0, 2)]);
    }

    #[test]
    #[should_panic]
    fn submatrix_out_of_range_panics() {
        let m = Matrix::<f64>::zeros(3, 3);
        let _ = m.view(2, 2, 2, 2);
    }
}
