//! Level-1 BLAS: vector-vector operations.
//!
//! These are the primitives the Householder kernels are built from. They are
//! deliberately simple scalar loops — rustc auto-vectorizes them — with
//! `mul_add` used where an FMA helps accuracy (dot products, norms).

use crate::scalar::Scalar;

/// Dot product `x . y`.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for (&a, &b) in x.iter().zip(y) {
        acc = a.mul_add(b, acc);
    }
    acc
}

/// Euclidean norm, overflow- and underflow-safe.
///
/// One pass sums plain squares and tracks the largest magnitude in eight
/// independent lanes, so the loop vectorizes and has no division. When the
/// largest entry lies in `[√safe_min, 1/(√safe_min·√n)]` no square can
/// lose its leading bits and the sum cannot overflow, so `sqrt(sum)` is the
/// answer. Anything else (zero, tiny, huge or non-finite entries) falls
/// back to the scaled loop of LAPACK `snrm2`.
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    const LANES: usize = 8;
    let mut ssq = [T::ZERO; LANES];
    let mut amax = [T::ZERO; LANES];
    let mut chunks = x.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            ssq[l] += c[l] * c[l];
            let a = c[l].abs();
            amax[l] = if a > amax[l] { a } else { amax[l] };
        }
    }
    for (l, &v) in chunks.remainder().iter().enumerate() {
        ssq[l] += v * v;
        let a = v.abs();
        amax[l] = if a > amax[l] { a } else { amax[l] };
    }
    let big = amax.iter().fold(T::ZERO, |m, &a| if a > m { a } else { m });
    let sum = ((ssq[0] + ssq[1]) + (ssq[2] + ssq[3])) + ((ssq[4] + ssq[5]) + (ssq[6] + ssq[7]));
    let small = T::safe_min().sqrt();
    let limit = T::ONE / (small * T::from_f64(x.len().max(1) as f64).sqrt());
    if big >= small && big <= limit && sum.is_finite() {
        sum.sqrt()
    } else {
        nrm2_scaled(x)
    }
}

/// Euclidean norm by the scaled running sum of LAPACK `snrm2`: one
/// division per entry, safe at every magnitude. The fallback of [`nrm2`].
fn nrm2_scaled<T: Scalar>(x: &[T]) -> T {
    let mut scale = T::ZERO;
    let mut ssq = T::ONE;
    for &v in x {
        if v != T::ZERO {
            let a = v.abs();
            if scale < a {
                let r = scale / a;
                ssq = T::ONE + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (&a, b) in x.iter().zip(y.iter_mut()) {
        *b = alpha.mul_add(a, *b);
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for v in x {
        *v *= alpha;
    }
}

/// Index of the element with the largest absolute value (0 for empty input).
pub fn iamax<T: Scalar>(x: &[T]) -> usize {
    let mut best = 0;
    let mut bv = T::ZERO;
    for (i, &v) in x.iter().enumerate() {
        let a = v.abs();
        if a > bv {
            bv = a;
            best = i;
        }
    }
    best
}

/// Sum of absolute values.
pub fn asum<T: Scalar>(x: &[T]) -> T {
    let mut acc = T::ZERO;
    for &v in x {
        acc += v.abs();
    }
    acc
}

/// Swap two vectors element-wise.
pub fn swap<T: Scalar>(x: &mut [T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        std::mem::swap(a, b);
    }
}

/// Plane (Givens) rotation applied to a pair of vectors:
/// `(x, y) <- (c*x + s*y, -s*x + c*y)`.
pub fn rot<T: Scalar>(x: &mut [T], y: &mut [T], c: T, s: T) {
    debug_assert_eq!(x.len(), y.len());
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        let xa = *a;
        let yb = *b;
        *a = c.mul_add(xa, s * yb);
        *b = c.mul_add(yb, -(s * xa));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0f64, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn nrm2_matches_sqrt_of_dot() {
        let x = [3.0f64, 4.0];
        assert!((nrm2(&x) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn nrm2_no_overflow() {
        let x = [1.0e20f32, 1.0e20];
        let n = nrm2(&x);
        assert!(n.is_finite());
        assert!((n / (2.0f32.sqrt() * 1.0e20) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn nrm2_no_underflow() {
        let x = [1.0e-30f32, 1.0e-30];
        let n = nrm2(&x);
        assert!(n > 0.0);
    }

    /// Every side of the one-pass range: the fast sum, each fallback
    /// (zero, tiny, huge, non-finite) and the range's edges agree with the
    /// scaled loop to a few ulps, and non-finite input stays non-finite.
    #[test]
    fn nrm2_one_pass_agrees_with_scaled_loop() {
        let small = f64::MIN_POSITIVE.sqrt();
        for x in [
            vec![0.0f64; 9],
            vec![1.0e-300, -2.0e-300, 0.0],
            vec![1.0e300, 1.0e300, -3.0e299],
            vec![small, 2.0 * small, 0.5 * small],
            vec![1.0e150; 17],
            (0..37).map(|i| (i as f64 - 18.0) / 7.0).collect(),
        ] {
            let (got, want) = (nrm2(&x), nrm2_scaled(&x));
            assert!(
                (got - want).abs() <= 4.0 * f64::EPSILON * want,
                "{x:?}: {got} vs {want}"
            );
        }
        assert!(nrm2(&[1.0f64, f64::NAN, 2.0]).is_nan());
        assert!(nrm2(&[0.0f64, f64::NAN]).is_nan());
        assert_eq!(nrm2(&[1.0f64, f64::INFINITY]), f64::INFINITY);
        assert_eq!(nrm2::<f32>(&[]), 0.0);
    }

    #[test]
    fn axpy_scal_compose() {
        let mut y = [1.0f64, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [1.5, 2.5, 3.5]);
    }

    #[test]
    fn iamax_and_asum() {
        assert_eq!(iamax(&[1.0f32, -5.0, 3.0]), 1);
        assert_eq!(asum(&[1.0f32, -5.0, 3.0]), 9.0);
        assert_eq!(iamax::<f32>(&[]), 0);
    }

    #[test]
    fn rot_is_orthogonal() {
        let th = 0.3f64;
        let (c, s) = (th.cos(), th.sin());
        let mut x = [1.0, 0.0];
        let mut y = [0.0, 1.0];
        rot(&mut x, &mut y, c, s);
        // Norms preserved.
        assert!((nrm2(&[x[0], y[0]]) - 1.0).abs() < 1e-15);
        assert!((nrm2(&[x[1], y[1]]) - 1.0).abs() < 1e-15);
    }
}
