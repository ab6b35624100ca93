//! Robust PCA by the inexact augmented-Lagrangian alternating-directions
//! method (Section VI-C, following the paper's reference \[19\]):
//!
//! ```text
//! minimize ||L||_* + lambda ||S||_1   subject to   M = L + S
//! ```
//!
//! Each iteration thresholds the singular values of `M - S + Y/mu`
//! (computed with the tall-skinny SVD-via-QR pipeline — "the vast majority
//! of the runtime is spent in the singular value threshold"), shrinks
//! `M - L + Y/mu` entrywise, and updates the multiplier `Y`.
//!
//! The loop is written once for every QR backend. When the backend carries
//! a simulated device ([`QrBackend::device`]), each bulk step is also
//! charged to it through [`LoopWalk`], as the GPU pipeline of Section VI-B
//! would run it: the video matrix travels to the device once, and per
//! iteration the combine pass, the SVD (QR, `R` down, its host SVD, its
//! factors up, `Q * U`), the GEMM forming `L`, the shrinkage and the
//! residual/multiplier pass. The arithmetic is the host's either way, so
//! the iterates do not depend on where the work is charged.

use crate::gpu_ops::LoopWalk;
use crate::svd_qr::{svd_via_qr, QrBackend};
use caqr::CaqrError;
use dense::matrix::Matrix;
use dense::norms::frobenius;
use dense::scalar::Scalar;

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct RpcaParams {
    /// Sparsity weight; `None` uses the standard `1/sqrt(max(m, n))`.
    pub lambda: Option<f64>,
    /// Convergence tolerance on `||M - L - S||_F / ||M||_F`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Multiplier growth factor per iteration.
    pub rho: f64,
}

impl Default for RpcaParams {
    fn default() -> Self {
        RpcaParams {
            lambda: None,
            tol: 1.0e-6,
            max_iter: 500,
            rho: 1.5,
        }
    }
}

/// Solver output.
pub struct RpcaResult<T: Scalar> {
    /// Low-rank component (the video background).
    pub l: Matrix<T>,
    /// Sparse component (the foreground).
    pub s: Matrix<T>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the residual tolerance was reached.
    pub converged: bool,
    /// Rank of `L` at exit (singular values that survived thresholding).
    pub rank: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Soft-threshold a scalar: `sign(x) * max(|x| - t, 0)`.
#[inline]
pub fn shrink_scalar<T: Scalar>(x: T, t: T) -> T {
    let a = x.abs() - t;
    if a > T::ZERO {
        x.sign() * a
    } else {
        T::ZERO
    }
}

/// Entrywise soft-thresholding (the "shrinkage operation ... pushing the
/// values of the matrix towards zero").
pub fn shrink_matrix<T: Scalar>(m: &mut Matrix<T>, t: T) {
    for v in m.as_mut_slice() {
        *v = shrink_scalar(*v, t);
    }
}

/// Solve Robust PCA for a tall matrix `m_mat` (`rows >= cols`).
pub fn rpca<T: Scalar>(
    backend: &dyn QrBackend<T>,
    m_mat: &Matrix<T>,
    params: &RpcaParams,
) -> Result<RpcaResult<T>, CaqrError> {
    let (m, n) = m_mat.shape();
    if m < n {
        return Err(CaqrError::BadShape(format!(
            "rpca expects the tall orientation ({m}x{n})"
        )));
    }
    if let Some((row, col)) = caqr::first_nonfinite(m_mat) {
        return Err(CaqrError::NonFinite {
            context: "rpca input",
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

    let walk = LoopWalk::new(backend.device(), m, n, T::BYTES);
    walk.upload();

    // Initial dual variable and penalty, following the inexact-ALM recipe:
    // Y = M / max(sigma_1(M), ||M||_inf / lambda), mu = 1.25 / sigma_1(M).
    let sigma1 = svd_via_qr(backend, m_mat)?.sigma[0].to_f64().max(1e-30);
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
        // work = M - S + Y/mu  (the matrix whose singular values we threshold)
        walk.combine()?;
        for (((w, mm), ss), yy) in work
            .as_mut_slice()
            .iter_mut()
            .zip(m_mat.as_slice())
            .zip(s.as_slice())
            .zip(y.as_slice())
        {
            *w = *mm - *ss + *yy * inv_mu;
        }
        // Singular-value thresholding via the SVD-of-QR pipeline. A
        // non-finite iterate means the iteration itself diverged, which is a
        // breakdown rather than a caller error.
        let svd = svd_via_qr(backend, &work).map_err(|e| match e {
            CaqrError::NonFinite { row, col, .. } => CaqrError::Breakdown {
                context: format!("rpca iterate {iter} went non-finite at ({row}, {col})"),
            },
            other => other,
        })?;
        rank = svd.sigma.iter().filter(|&&sv| sv > inv_mu).count();
        // L = U * shrink(Sigma) * V^T using only the surviving components.
        walk.low_rank()?;
        l.as_mut_slice().fill(T::ZERO);
        for k in 0..rank {
            let sk = svd.sigma[k] - inv_mu;
            let uk = svd.u.col(k);
            for j in 0..n {
                let vkj = svd.v[(j, k)] * sk;
                if vkj != T::ZERO {
                    let lj = l.col_mut(j);
                    for (li, &ui) in lj.iter_mut().zip(uk) {
                        *li = vkj.mul_add(ui, *li);
                    }
                }
            }
        }
        // S = shrink(M - L + Y/mu, lambda/mu)
        walk.shrink()?;
        let thr = lambda * inv_mu;
        for (((ss, mm), ll), yy) in s
            .as_mut_slice()
            .iter_mut()
            .zip(m_mat.as_slice())
            .zip(l.as_slice())
            .zip(y.as_slice())
        {
            *ss = shrink_scalar(*mm - *ll + *yy * inv_mu, thr);
        }
        // Residual Z = M - L - S; Y += mu * Z.
        walk.residual()?;
        let mut z2 = 0.0f64;
        for (((yy, mm), ll), ss) in y
            .as_mut_slice()
            .iter_mut()
            .zip(m_mat.as_slice())
            .zip(l.as_slice())
            .zip(s.as_slice())
        {
            let z = *mm - *ll - *ss;
            z2 += z.to_f64() * z.to_f64();
            *yy = mu.mul_add(z, *yy);
        }
        residual = z2.sqrt() / m_norm;
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
    use crate::svd_qr::{CpuQrBackend, GpuCaqrBackend};
    use crate::video::{generate, sparsity, VideoConfig};
    use caqr::CaqrOptions;
    use dense::generate as gen;
    use dense::svd::singular_values;
    use gpu_sim::{DeviceSpec, Gpu};

    fn small_opts() -> CaqrOptions {
        CaqrOptions {
            bs: caqr::BlockSize { h: 32, w: 8 },
            strategy: caqr::ReductionStrategy::RegisterSerialTransposed,
            tree: caqr::TreeShape::DeviceArity,
        }
    }

    #[test]
    fn shrink_scalar_cases() {
        assert_eq!(shrink_scalar(3.0f64, 1.0), 2.0);
        assert_eq!(shrink_scalar(-3.0f64, 1.0), -2.0);
        assert_eq!(shrink_scalar(0.5f64, 1.0), 0.0);
        assert_eq!(shrink_scalar(-0.5f64, 1.0), 0.0);
        assert_eq!(shrink_scalar(0.0f64, 1.0), 0.0);
    }

    #[test]
    fn recovers_planted_low_rank_plus_sparse() {
        // Classic RPCA recovery: random rank-2 L0 + 5%-support sparse S0.
        let m = 80;
        let n = 20;
        let l0 = gen::low_rank::<f64>(m, n, 2, 0.0, 11);
        let mut s0 = Matrix::<f64>::zeros(m, n);
        // Deterministic sparse support with large entries.
        let mut count = 0;
        for j in 0..n {
            for i in 0..m {
                if (i * 7 + j * 13) % 19 == 0 {
                    s0[(i, j)] = if (i + j) % 2 == 0 { 4.0 } else { -4.0 };
                    count += 1;
                }
            }
        }
        assert!(count > 20);
        let mut observed = l0.clone();
        for (o, s) in observed.as_mut_slice().iter_mut().zip(s0.as_slice()) {
            *o += *s;
        }
        let r = rpca(&CpuQrBackend, &observed, &RpcaParams::default()).unwrap();
        assert!(
            r.converged,
            "did not converge in {} iters (residual {})",
            r.iterations, r.residual
        );
        let mut err_l = 0.0f64;
        for (a, b) in r.l.as_slice().iter().zip(l0.as_slice()) {
            err_l += (a - b) * (a - b);
        }
        let rel = err_l.sqrt() / frobenius(&l0);
        assert!(rel < 1e-3, "L recovery error {rel}");
        assert_eq!(r.rank, 2, "recovered rank {}", r.rank);
    }

    #[test]
    fn separates_synthetic_video() {
        // The motivating application end to end on a tiny clip.
        let video = generate::<f64>(&VideoConfig::tiny());
        let r = rpca(
            &CpuQrBackend,
            &video.matrix,
            &RpcaParams {
                tol: 1e-5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.converged);
        // Background: L close to the planted background.
        let mut err = 0.0f64;
        for (a, b) in r.l.as_slice().iter().zip(video.background.as_slice()) {
            err += (a - b) * (a - b);
        }
        let rel = err.sqrt() / frobenius(&video.background);
        assert!(rel < 0.08, "background error {rel}");
        // L is genuinely low rank.
        let sv = singular_values(&r.l);
        assert!(sv[3] < 0.05 * sv[0], "L not low-rank: {:?}", &sv[..4]);
        // Foreground: S is sparse and hits the blob support.
        let frac = sparsity(&r.s, 0.3);
        assert!(frac < 0.2, "S not sparse: {frac}");
        let mut hits = 0;
        let mut blob_pixels = 0;
        for (s, f) in r.s.as_slice().iter().zip(video.foreground.as_slice()) {
            if f.abs() > 0.5 {
                blob_pixels += 1;
                if s.abs() > 0.3 {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / blob_pixels as f64;
        assert!(recall > 0.85, "foreground recall {recall}");
    }

    #[test]
    fn zero_matrix_trivially_converges() {
        let z = Matrix::<f64>::zeros(30, 5);
        let r = rpca(&CpuQrBackend, &z, &RpcaParams::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.rank, 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let video = generate::<f64>(&VideoConfig::tiny());
        let r = rpca(
            &CpuQrBackend,
            &video.matrix,
            &RpcaParams {
                max_iter: 2,
                tol: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.iterations, 2);
        assert!(!r.converged);
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
        let backend = GpuCaqrBackend {
            gpu: &gpu,
            opts: small_opts(),
        };
        let dev = rpca(&backend, &video.matrix, &params).unwrap();
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
        // The whole iteration is on the device ledger: the video upload,
        // per SVD the QR's launches, `R` down, its factors up and `Q * U`,
        // per iteration the combine, `L` GEMM, shrink and residual passes.
        // The expected ledger is what the former device-side copy of this
        // loop, with its own kernels, charged for the same solve, plus the
        // host SVD of `R` once per SVD (`svd_r`, 22 n^3 flops at 8 GFLOP/s).
        let video = generate::<f64>(&VideoConfig::tiny());
        let gpu = Gpu::new(DeviceSpec::gtx480());
        let params = RpcaParams {
            tol: 1e-4,
            max_iter: 8,
            ..Default::default()
        };
        let backend = GpuCaqrBackend {
            gpu: &gpu,
            opts: small_opts(),
        };
        let r = rpca(&backend, &video.matrix, &params).unwrap();
        assert_eq!((r.iterations, r.converged), (8, false));
        let ledger = gpu.ledger();
        let ops: Vec<(&str, u64, f64)> = (ledger.per_op.iter())
            .map(|(&op, st)| (op, st.calls, st.seconds))
            .collect();
        let want: [(&str, u64, f64); 13] = [
            ("apply_qt_h", 45, 0.001167377115190144),
            ("apply_qt_tree", 90, 0.002283393521533614),
            ("d2h", 9, 0.0001402363636363636),
            ("ew_combine", 8, 0.00021597310924369742),
            ("ew_residual", 8, 0.0002211025210084034),
            ("ew_shrink", 8, 0.00021597310924369742),
            ("factor", 27, 0.0007987184598214287),
            ("factor_tree", 54, 0.001596806281512604),
            ("gpu_gemm", 17, 0.0005160160714285715),
            ("h2d", 10, 0.00017303999999999996),
            ("health_check", 9, 0.00022851457627118642),
            ("pretranspose", 9, 0.00023374738983050845),
            ("svd_r", 9, 0.00019799999999999996),
        ];
        assert_eq!(ops, want);
        // The video matrix (24 * 18 x 20 f64) travelled once; `R` and its
        // SVD factors round-trip per SVD.
        assert_eq!(
            (ledger.transfers, ledger.h2d_bytes, ledger.d2h_bytes),
            (19, 126_720, 28_800)
        );
        assert_eq!(ledger.seconds, 0.007988898518720217);
    }
}
