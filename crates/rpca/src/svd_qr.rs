//! Tall-skinny SVD via QR (Section VI-B):
//!
//! ```text
//! A = Q R,   R = U Σ V^T   =>   A = (Q U) Σ V^T
//! ```
//!
//! The expensive part is the QR of the tall matrix; the `n x n` SVD of `R`
//! is "cheap ... and done on the CPU". The QR step is pluggable so the
//! Robust PCA solver can run on the plain CPU path or through the simulated
//! GPU CAQR — the Table II comparison.

use caqr::{CaqrError, CaqrOptions, Factorization, SimBackend};
use dense::blas3::{gemm, Trans};
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::svd::{svd, Svd};
use gpu_sim::Gpu;

/// A QR engine usable by the SVD-via-QR pipeline: returns explicit `Q`
/// (`m x n`) and `R` (`n x n`).
pub trait QrBackend<T: Scalar> {
    /// Factor `a` and return `(Q, R)`.
    fn qr(&self, a: &Matrix<T>) -> Result<(Matrix<T>, Matrix<T>), CaqrError>;
    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Blocked Householder QR on the host (`dense::blocked`).
pub struct CpuQrBackend;

impl<T: Scalar> QrBackend<T> for CpuQrBackend {
    fn qr(&self, a: &Matrix<T>) -> Result<(Matrix<T>, Matrix<T>), CaqrError> {
        if let Some((row, col)) = caqr::first_nonfinite(a) {
            return Err(CaqrError::NonFinite {
                context: "cpu qr input",
                row,
                col,
            });
        }
        let n = a.cols();
        let mut f = a.clone();
        let tau = dense::blocked::geqrf(&mut f, dense::blocked::DEFAULT_NB);
        let q = dense::blocked::orgqr(&f, &tau, n, dense::blocked::DEFAULT_NB);
        Ok((q, f.upper_triangular()))
    }
    fn name(&self) -> &'static str {
        "cpu-blocked-householder"
    }
}

/// CAQR on the simulated GPU (the paper's pipeline).
pub struct GpuCaqrBackend<'a> {
    /// The simulated device (its ledger accumulates the modelled time).
    pub gpu: &'a Gpu,
    /// CAQR options.
    pub opts: CaqrOptions,
}

impl<'a, T: Scalar> QrBackend<T> for GpuCaqrBackend<'a> {
    fn qr(&self, a: &Matrix<T>) -> Result<(Matrix<T>, Matrix<T>), CaqrError> {
        let n = a.cols();
        let f: Factorization<T> = caqr::caqr::caqr(self.gpu, a.clone(), self.opts)?;
        let q = f.generate_q_on(&SimBackend::sync(self.gpu), n)?;
        Ok((q, f.r()))
    }
    fn name(&self) -> &'static str {
        "gpu-caqr"
    }
}

/// SVD of a tall-skinny matrix via QR + small SVD of `R` + `Q * U`.
pub fn svd_via_qr<T: Scalar>(
    backend: &dyn QrBackend<T>,
    a: &Matrix<T>,
) -> Result<Svd<T>, CaqrError> {
    let (m, n) = a.shape();
    if m < n {
        return Err(CaqrError::BadShape(format!(
            "svd_via_qr requires a tall matrix, got {m}x{n}"
        )));
    }
    let (q, r) = backend.qr(a)?;
    let small = svd(&r); // the cheap n x n SVD ("done on the CPU")
                         // Left singular vectors of A: U' = Q * U.
    let mut u = Matrix::<T>::zeros(m, n);
    gemm(
        Trans::No,
        Trans::No,
        T::ONE,
        q.as_ref(),
        small.u.as_ref(),
        T::ZERO,
        u.as_mut(),
    );
    Ok(Svd {
        u,
        sigma: small.sigma,
        v: small.v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::generate;
    use dense::norms::orthogonality_error;
    use gpu_sim::DeviceSpec;

    fn reconstruct(s: &Svd<f64>, m: usize, n: usize) -> Matrix<f64> {
        let mut us = s.u.clone();
        for j in 0..n {
            let sj = s.sigma[j];
            for v in us.col_mut(j) {
                *v *= sj;
            }
        }
        let mut out = Matrix::<f64>::zeros(m, n);
        gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            us.as_ref(),
            s.v.as_ref(),
            0.0,
            out.as_mut(),
        );
        out
    }

    #[test]
    fn cpu_pipeline_matches_direct_svd() {
        let a = generate::uniform::<f64>(120, 10, 3);
        let via_qr = svd_via_qr(&CpuQrBackend, &a).unwrap();
        let direct = svd(&a);
        for (x, y) in via_qr.sigma.iter().zip(&direct.sigma) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
        let r = reconstruct(&via_qr, 120, 10);
        for i in 0..120 {
            for j in 0..10 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        assert!(orthogonality_error(&via_qr.u) < 1e-12);
    }

    #[test]
    fn gpu_pipeline_matches_cpu_pipeline() {
        let gpu = Gpu::new(DeviceSpec::gtx480());
        let backend = GpuCaqrBackend {
            gpu: &gpu,
            opts: CaqrOptions {
                bs: caqr::BlockSize { h: 32, w: 8 },
                strategy: caqr::ReductionStrategy::RegisterSerialTransposed,
                tree: caqr::block::TreeShape::DeviceArity,
                check_finite: true,
            },
        };
        let a = generate::uniform::<f64>(200, 12, 4);
        let g = svd_via_qr(&backend, &a).unwrap();
        let c = svd_via_qr(&CpuQrBackend, &a).unwrap();
        for (x, y) in g.sigma.iter().zip(&c.sigma) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
        // The GPU ledger advanced (the QR really went through the simulator).
        assert!(gpu.elapsed() > 0.0);
        let r = reconstruct(&g, 200, 12);
        for i in 0..200 {
            for j in 0..12 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rank_deficient_input_survives() {
        let a = generate::low_rank::<f64>(80, 12, 3, 0.0, 5);
        let s = svd_via_qr(&CpuQrBackend, &a).unwrap();
        assert!(s.sigma[2] > 1e-8);
        assert!(s.sigma[3] < 1e-8 * s.sigma[0].max(1.0));
        let r = reconstruct(&s, 80, 12);
        for i in 0..80 {
            for j in 0..12 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }
}
