//! Matrix norms and the standard QR quality metrics used throughout the
//! test suites and EXPERIMENTS.md.

use crate::blas3::{gemm, Trans};
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// `sqrt(sum x^2)` over `xs`, accumulated as a scaled sum of squares (as
/// [`crate::blas1::nrm2`] does) so that entries near the overflow or
/// underflow threshold neither overflow to `inf` nor vanish to zero.
fn norm2(xs: impl Iterator<Item = f64>) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for x in xs {
        if x != 0.0 {
            let a = x.abs();
            if scale < a {
                let r = scale / a;
                ssq = 1.0 + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// Frobenius norm.
pub fn frobenius<T: Scalar>(a: &Matrix<T>) -> f64 {
    norm2(a.as_slice().iter().map(|v| v.to_f64()))
}

/// Largest absolute entry.
pub fn max_abs<T: Scalar>(a: &Matrix<T>) -> f64 {
    a.as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.to_f64().abs()))
}

/// 1-norm (maximum absolute column sum).
pub fn one_norm<T: Scalar>(a: &Matrix<T>) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|v| v.to_f64().abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Infinity-norm (maximum absolute row sum).
pub fn inf_norm<T: Scalar>(a: &Matrix<T>) -> f64 {
    let mut sums = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (s, v) in sums.iter_mut().zip(a.col(j)) {
            *s += v.to_f64().abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// Relative reconstruction error `||A - Q R||_F / ||A||_F` (returns the
/// absolute error when `A` is zero).
pub fn reconstruction_error<T: Scalar>(a: &Matrix<T>, q: &Matrix<T>, r: &Matrix<T>) -> f64 {
    let (m, n) = a.shape();
    let mut qr = Matrix::<T>::zeros(m, n);
    gemm(
        Trans::No,
        Trans::No,
        T::ONE,
        q.as_ref(),
        r.as_ref(),
        T::ZERO,
        qr.as_mut(),
    );
    let diffs = qr.as_slice().iter().zip(a.as_slice());
    let diff = norm2(diffs.map(|(x, y)| x.to_f64() - y.to_f64()));
    let na = frobenius(a);
    if na > 0.0 {
        diff / na
    } else {
        diff
    }
}

/// Orthogonality error `||Q^T Q - I||_F`.
pub fn orthogonality_error<T: Scalar>(q: &Matrix<T>) -> f64 {
    let n = q.cols();
    let mut qtq = Matrix::<T>::zeros(n, n);
    gemm(
        Trans::Yes,
        Trans::No,
        T::ONE,
        q.as_ref(),
        q.as_ref(),
        T::ZERO,
        qtq.as_mut(),
    );
    let mut acc = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let want = if i == j { 1.0 } else { 0.0 };
            let d = qtq[(i, j)].to_f64() - want;
            acc += d * d;
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_matrix() {
        let a = Matrix::from_row_major(2, 2, &[3.0f64, -4.0, 0.0, 0.0]);
        assert!((frobenius(&a) - 5.0).abs() < 1e-14);
        assert_eq!(max_abs(&a), 4.0);
        assert_eq!(one_norm(&a), 4.0);
        assert_eq!(inf_norm(&a), 7.0);
    }

    #[test]
    fn metrics_hold_at_the_extremes_of_the_exponent_range() {
        // Squaring raw entries overflows at 1e300 (|A| = inf, the backward
        // error NaN) and underflows at 1e-300 (|A| = 0, every error hidden).
        let a = Matrix::from_row_major(2, 2, &[3.0f64, -4.0, 0.0, 0.0]);
        let q = Matrix::<f64>::eye(2, 2);
        for s in [1e300, 1e-300] {
            let sa = Matrix::from_fn(2, 2, |i, j| a[(i, j)] * s);
            let rel = (frobenius(&sa) - 5.0 * s).abs() / (5.0 * s);
            assert!(rel < 1e-15, "scale {s:e}: |A| = {:e}", frobenius(&sa));
            // Q R misses A by one entry of a tenth of A's scale.
            let mut r = sa.clone();
            r[(0, 1)] += 0.5 * s;
            let err = reconstruction_error(&sa, &q, &r);
            assert!((err - 0.1).abs() < 1e-15, "scale {s:e}: error {err}");
        }
    }

    #[test]
    fn identity_is_perfectly_orthogonal() {
        let q = Matrix::<f64>::eye(6, 4);
        assert!(orthogonality_error(&q) < 1e-15);
    }

    #[test]
    fn reconstruction_error_zero_for_exact_factors() {
        let q = Matrix::<f64>::eye(4, 4);
        let r = Matrix::from_fn(4, 4, |i, j| if i <= j { (i + j + 1) as f64 } else { 0.0 });
        assert!(reconstruction_error(&r, &q, &r) < 1e-15);
    }
}
