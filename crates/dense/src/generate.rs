//! Deterministic test/benchmark matrix generators.
//!
//! Every generator takes an explicit seed so experiments are reproducible
//! bit-for-bit across runs and machines.

use crate::blas1::{nrm2, scal};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rand::distributions::{Distribution, Uniform};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn uniform<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dist = Uniform::new(-1.0f64, 1.0);
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(dist.sample(&mut rng)))
}

/// Matrix with prescribed singular-value decay `sigma_k = decay^k`
/// (`decay < 1` for ill conditioning, `1.0` for orthogonal-like). Built as
/// `Q1 * diag(sigma) * Q2^T` with random orthogonal-ish factors obtained by
/// MGS of random matrices.
pub fn graded<T: Scalar>(rows: usize, cols: usize, decay: f64, seed: u64) -> Matrix<T> {
    assert!(rows >= cols);
    let (q1, _) = crate::gram_schmidt::modified_gram_schmidt(&uniform::<T>(rows, cols, seed));
    let (q2, _) =
        crate::gram_schmidt::modified_gram_schmidt(&uniform::<T>(cols, cols, seed ^ 0x9e37_79b9));
    let mut scaled = q1;
    for j in 0..cols {
        let s = T::from_f64(decay.powi(j as i32));
        scal(s, scaled.col_mut(j));
    }
    let mut out = Matrix::<T>::zeros(rows, cols);
    crate::blas3::gemm(
        crate::blas3::Trans::No,
        crate::blas3::Trans::Yes,
        T::ONE,
        scaled.as_ref(),
        q2.as_ref(),
        T::ZERO,
        out.as_mut(),
    );
    out
}

/// Rank-`r` matrix plus optional additive noise: `sum_{k<r} x_k y_k^T`.
pub fn low_rank<T: Scalar>(
    rows: usize,
    cols: usize,
    rank: usize,
    noise: f64,
    seed: u64,
) -> Matrix<T> {
    let x = uniform::<T>(rows, rank, seed);
    let y = uniform::<T>(cols, rank, seed ^ 0x5151_5151);
    let mut out = Matrix::<T>::zeros(rows, cols);
    crate::blas3::gemm(
        crate::blas3::Trans::No,
        crate::blas3::Trans::Yes,
        T::ONE,
        x.as_ref(),
        y.as_ref(),
        T::ZERO,
        out.as_mut(),
    );
    if noise > 0.0 {
        let n = uniform::<T>(rows, cols, seed ^ 0xabcd);
        for (o, v) in out.as_mut_slice().iter_mut().zip(n.as_slice()) {
            *o += T::from_f64(noise) * *v;
        }
    }
    out
}

/// Krylov-sequence matrix `[v, Av, A^2 v, ..., A^{s-1} v]` for a sparse-ish
/// operator (tridiagonal + random diagonal), the s-step-method workload the
/// paper's introduction motivates. Columns are normalized after each power
/// so entries stay finite, preserving the extreme linear dependence that
/// makes these matrices hard to orthogonalize.
pub fn krylov_basis<T: Scalar>(n: usize, s: usize, seed: u64) -> Matrix<T> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dist = Uniform::new(0.5f64, 1.5);
    let diag: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    let mut basis = Matrix::<T>::zeros(n, s);
    // v0 = normalized ones.
    {
        let c0 = basis.col_mut(0);
        c0.fill(T::ONE);
        let nn = nrm2(c0);
        scal(T::ONE / nn, c0);
    }
    for k in 1..s {
        let prev = basis.col(k - 1).to_vec();
        let col = basis.col_mut(k);
        for i in 0..n {
            // Tridiagonal stencil: A = diag(d) + sub/super-diagonal of -0.5.
            let mut acc = T::from_f64(diag[i]) * prev[i];
            if i > 0 {
                acc = T::from_f64(-0.5).mul_add(prev[i - 1], acc);
            }
            if i + 1 < n {
                acc = T::from_f64(-0.5).mul_add(prev[i + 1], acc);
            }
            col[i] = acc;
        }
        let nn = nrm2(col);
        if nn > T::ZERO {
            scal(T::ONE / nn, col);
        }
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::singular_values;

    #[test]
    fn uniform_is_deterministic_and_bounded() {
        let a = uniform::<f64>(16, 4, 42);
        let b = uniform::<f64>(16, 4, 42);
        assert_eq!(a, b);
        let c = uniform::<f64>(16, 4, 43);
        assert_ne!(a, c);
        for v in a.as_slice() {
            assert!(*v >= -1.0 && *v < 1.0);
        }
    }

    #[test]
    fn graded_matches_requested_decay() {
        let a = graded::<f64>(40, 6, 0.1, 7);
        let s = singular_values(&a);
        for (k, sv) in s.iter().enumerate() {
            let want = 0.1f64.powi(k as i32);
            assert!(
                (sv / want - 1.0).abs() < 1e-6,
                "sigma_{k} = {sv}, want {want}"
            );
        }
    }

    #[test]
    fn low_rank_has_requested_rank() {
        let a = low_rank::<f64>(30, 20, 3, 0.0, 11);
        let s = singular_values(&a);
        assert!(s[2] > 1e-8);
        assert!(s[3] < 1e-10 * s[0]);
    }

    #[test]
    fn krylov_columns_become_nearly_dependent() {
        // The motivating property: Krylov bases are terribly conditioned.
        let a = krylov_basis::<f64>(256, 12, 3);
        let s = singular_values(&a);
        assert!(s[0] / s[11] > 1e3, "condition {} too small", s[0] / s[11]);
        // All columns unit-normalized.
        for j in 0..12 {
            assert!((crate::blas1::nrm2(a.col(j)) - 1.0).abs() < 1e-12);
        }
    }
}
