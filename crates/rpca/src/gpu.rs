//! The all-GPU Robust PCA loop: every bulk step — QR, `Q * U`, the
//! `L = U' (shrunk Sigma) V^T` back-multiplication, shrinkage, residual and
//! multiplier updates — runs as kernels on the simulated device, with only
//! the tiny `n x n` SVD of `R` on the host (Section VI-B: "the SVD of R ...
//! is cheap ... and done on the CPU"). The device ledger therefore carries
//! the complete modelled iteration cost — the executed counterpart of the
//! Table II model.

use crate::gpu_ops::launch;
use crate::solver::{RpcaParams, RpcaResult};
use caqr::{CaqrError, CaqrOptions, SimBackend};
use dense::matrix::Matrix;
use dense::norms::frobenius;
use dense::scalar::Scalar;
use dense::svd::svd;
use gpu_sim::Gpu;

/// `(U', sigma, V)` from the device SVD pipeline.
type GpuSvdFactors<T> = (Matrix<T>, Vec<T>, Matrix<T>);

/// SVD of a tall matrix with everything but the small `R`-SVD on the
/// device. Returns `(U', sigma, V)`.
fn gpu_svd<T: Scalar>(
    gpu: &Gpu,
    opts: CaqrOptions,
    a: &Matrix<T>,
) -> Result<GpuSvdFactors<T>, CaqrError> {
    let (m, n) = a.shape();
    let f = caqr::caqr::caqr(gpu, a.clone(), opts)?;
    let q = f.generate_q_on(&SimBackend::sync(gpu), n)?;
    let r = f.r();
    // R down to the host, small SVD, factors back up.
    gpu.transfer_d2h((n * n) as u64 * T::BYTES);
    let small = svd(&r);
    gpu.transfer_h2d((2 * n * n) as u64 * T::BYTES);
    // U' = Q * U on the device.
    let mut u = Matrix::<T>::zeros(m, n);
    launch::gemm_small_rhs(gpu, &mut u, &q, small.u)?;
    Ok((u, small.sigma, small.v))
}

/// Solve Robust PCA with the full GPU pipeline. Produces the same iterates
/// as [`crate::solver::rpca`] (verified by tests) while charging every bulk
/// operation to the device ledger.
pub fn rpca_gpu<T: Scalar>(
    gpu: &Gpu,
    opts: CaqrOptions,
    m_mat: &Matrix<T>,
    params: &RpcaParams,
) -> Result<RpcaResult<T>, CaqrError> {
    let (m, n) = m_mat.shape();
    if m < n {
        return Err(CaqrError::BadShape(format!(
            "rpca_gpu expects the tall orientation ({m}x{n})"
        )));
    }
    if let Some((row, col)) = caqr::first_nonfinite(m_mat) {
        return Err(CaqrError::NonFinite {
            context: "rpca_gpu input",
            row,
            col,
        });
    }
    let lambda = T::from_f64(params.lambda.unwrap_or(1.0 / (m.max(n) as f64).sqrt()));
    let m_norm = frobenius(m_mat);
    if m_norm == 0.0 {
        return Ok(RpcaResult {
            l: Matrix::zeros(m, n),
            s: Matrix::zeros(m, n),
            iterations: 0,
            converged: true,
            rank: 0,
            residual: 0.0,
        });
    }

    // Video matrix moves to the device once; "the cost of initially
    // transferring the video matrix to GPU memory is easily amortized".
    gpu.transfer_h2d((m * n) as u64 * T::BYTES);

    let (_, sigma, _) = gpu_svd(gpu, opts, m_mat)?;
    let sigma1 = sigma[0].to_f64().max(1e-30);
    let max_abs = dense::norms::max_abs(m_mat);
    let scale = sigma1.max(max_abs / lambda.to_f64());
    let mut y = m_mat.clone();
    for v in y.as_mut_slice() {
        *v /= T::from_f64(scale);
    }
    let mut mu = T::from_f64(1.25 / sigma1);
    let mu_max = T::from_f64(1.25 / sigma1 * 1.0e7);
    let rho = T::from_f64(params.rho);

    let mut l = Matrix::<T>::zeros(m, n);
    let mut s = Matrix::<T>::zeros(m, n);
    let mut work = Matrix::<T>::zeros(m, n);
    let mut rank = 0;
    let mut residual = f64::INFINITY;

    for iter in 0..params.max_iter {
        let inv_mu = T::ONE / mu;
        // work = M - S + Y/mu (device kernel).
        launch::combine(gpu, &mut work, m_mat, &s, &y, inv_mu)?;
        // Singular-value threshold via the GPU SVD pipeline. A non-finite
        // iterate is a solver breakdown, not a caller error.
        let (u, sigma, v) = gpu_svd(gpu, opts, &work).map_err(|e| match e {
            CaqrError::NonFinite { row, col, .. } => CaqrError::Breakdown {
                context: format!("rpca_gpu iterate {iter} went non-finite at ({row}, {col})"),
            },
            other => other,
        })?;
        rank = sigma.iter().filter(|&&sv| sv > inv_mu).count();
        // L = U[:, :r] * (shrunk Sigma V^T)[:r, :] — small right factor
        // assembled on the host, multiplied on the device.
        let mut small = Matrix::<T>::zeros(n, n);
        for k in 0..rank {
            let sk = sigma[k] - inv_mu;
            for j in 0..n {
                small[(k, j)] = sk * v[(j, k)];
            }
        }
        launch::gemm_small_rhs(gpu, &mut l, &u, small)?;
        // S = shrink(M - L + Y/mu, lambda/mu) (device kernel).
        launch::shrink(gpu, &mut s, m_mat, &l, &y, inv_mu, lambda * inv_mu)?;
        // Residual + multiplier update (device kernel).
        let z_norm = launch::residual_update(gpu, m_mat, &l, &s, &mut y, mu)?;
        residual = z_norm / m_norm;
        if residual < params.tol {
            return Ok(RpcaResult {
                l,
                s,
                iterations: iter + 1,
                converged: true,
                rank,
                residual,
            });
        }
        mu = (mu * rho).minimum(mu_max);
    }

    Ok(RpcaResult {
        l,
        s,
        iterations: params.max_iter,
        converged: false,
        rank,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::rpca;
    use crate::svd_qr::CpuQrBackend;
    use crate::video::{generate, VideoConfig};
    use gpu_sim::DeviceSpec;

    fn small_opts() -> CaqrOptions {
        CaqrOptions {
            bs: caqr::BlockSize { h: 32, w: 8 },
            strategy: caqr::ReductionStrategy::RegisterSerialTransposed,
            tree: caqr::TreeShape::DeviceArity,
        }
    }

    #[test]
    fn gpu_loop_matches_cpu_solver() {
        let video = generate::<f64>(&VideoConfig::tiny());
        let params = RpcaParams {
            tol: 1e-5,
            ..Default::default()
        };
        let cpu = rpca(&CpuQrBackend, &video.matrix, &params).unwrap();
        let gpu = Gpu::new(DeviceSpec::gtx480());
        let dev = rpca_gpu(&gpu, small_opts(), &video.matrix, &params).unwrap();
        assert_eq!(cpu.iterations, dev.iterations);
        assert_eq!(cpu.rank, dev.rank);
        let mut max_d = 0.0f64;
        for (a, b) in cpu.l.as_slice().iter().zip(dev.l.as_slice()) {
            max_d = max_d.max((a - b).abs());
        }
        assert!(max_d < 1e-8, "L drifted between CPU and GPU loops: {max_d}");
    }

    #[test]
    fn gpu_loop_charges_every_stage() {
        let video = generate::<f64>(&VideoConfig::tiny());
        let gpu = Gpu::new(DeviceSpec::gtx480());
        let params = RpcaParams {
            tol: 1e-4,
            max_iter: 8,
            ..Default::default()
        };
        let _ = rpca_gpu(&gpu, small_opts(), &video.matrix, &params).unwrap();
        let ledger = gpu.ledger();
        for op in [
            "factor",
            "apply_qt_h",
            "gpu_gemm",
            "ew_combine",
            "ew_shrink",
            "ew_residual",
        ] {
            assert!(
                ledger.per_op.contains_key(op),
                "stage {op} missing from the device ledger"
            );
        }
        // The video matrix travelled to the device exactly once; R/SVD
        // factors round-trip per iteration.
        assert!(ledger.h2d_bytes as usize >= video.matrix.rows() * video.matrix.cols() * 8);
        assert!(ledger.transfers > 2);
        assert!(ledger.seconds > 0.0);
    }
}
