//! Table II: modelled Robust PCA iteration rates for the three
//! implementations the paper compares on the 110,592 x 100 video matrix.
//!
//! | paper variant          | iterations/s |
//! |------------------------|--------------|
//! | MKL SVD (4 cores)      | 0.9          |
//! | BLAS2 QR (GTX480)      | 8.7          |
//! | CAQR (GTX480)          | 27.0         |
//!
//! One iteration = singular-value threshold (the SVD, by far the dominant
//! cost — hence the Amdahl-limited 3x end-to-end speedup from a >3x faster
//! QR) + shrinkage + multiplier update.

use baselines::blas2gpu::model_blas2_gpu_seconds;
use baselines::mkl::model_mkl_svd_seconds;
use caqr::CaqrOptions;
use gpu_sim::{CpuSpec, DeviceSpec, Gpu, PcieSpec};

/// The three Robust PCA implementations of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcaImpl {
    /// All-CPU: MKL `SGESDD` on the 4-core Core i7.
    MklSvdCpu,
    /// GPU pipeline with the authors' bandwidth-bound BLAS2 QR (GTX480).
    Blas2GpuQr,
    /// GPU pipeline with CAQR (GTX480).
    CaqrGpu,
}

impl RpcaImpl {
    /// All three, in the paper's table order.
    pub const ALL: [RpcaImpl; 3] = [RpcaImpl::MklSvdCpu, RpcaImpl::Blas2GpuQr, RpcaImpl::CaqrGpu];

    /// Display name matching Table II.
    pub fn name(self) -> &'static str {
        match self {
            RpcaImpl::MklSvdCpu => "MKL SVD (4 cores)",
            RpcaImpl::Blas2GpuQr => "BLAS2 QR (GTX480)",
            RpcaImpl::CaqrGpu => "CAQR (GTX480)",
        }
    }
}

/// Elementwise passes over the `m x n` iterate per iteration: forming
/// `M - S + Y/mu`, the shrinkage of `S`, the residual and the `Y` update
/// (each a read-heavy streaming pass).
const ELEMENTWISE_PASSES: f64 = 15.0;

/// Kernel launches for the elementwise phase on the GPU.
const ELEMENTWISE_LAUNCHES: f64 = 8.0;

fn gemm_seconds_gpu(gpu: &DeviceSpec, m: usize, n: usize, k: usize) -> f64 {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let bytes = 4.0 * (m as f64 * k as f64 + k as f64 * n as f64 + 2.0 * m as f64 * n as f64);
    (flops / (gpu.gemm_gflops() * 1.0e9)).max(bytes / (gpu.dram_bw_gbs * 1.0e9))
        + gpu.launch_overhead_us * 1.0e-6
}

/// Seconds for the small `n x n` SVD of `R` on the host CPU.
fn small_svd_seconds(cpu: &CpuSpec, n: usize) -> f64 {
    // gesdd-style O(n^3) with a healthy constant, cache resident.
    22.0 * (n * n * n) as f64 / (cpu.blas2_cache_gflops * 1.0e9)
}

/// Modelled seconds of one Robust PCA iteration on an `m x n` video matrix.
pub fn model_iteration_seconds(which: RpcaImpl, m: usize, n: usize) -> f64 {
    match which {
        RpcaImpl::MklSvdCpu => {
            let cpu = CpuSpec::corei7_4core();
            let bw = cpu.dram_bw_gbs * 1.0e9;
            let bytes = 4.0 * m as f64 * n as f64;
            let svd = model_mkl_svd_seconds(&cpu, m, n);
            // L = U Sigma V^T back-multiplication.
            let gemm = {
                let flops = 2.0 * m as f64 * (n * n) as f64;
                (flops / (cpu.peak_gflops() * 1.0e9 * cpu.gemm_efficiency)).max(3.0 * bytes / bw)
            };
            let elementwise = ELEMENTWISE_PASSES * bytes / bw;
            svd + gemm + elementwise
        }
        RpcaImpl::Blas2GpuQr | RpcaImpl::CaqrGpu => {
            let gpu_spec = DeviceSpec::gtx480();
            let pcie = PcieSpec::gen2_x16();
            let cpu = CpuSpec::corei7_4core();
            let qr = match which {
                RpcaImpl::Blas2GpuQr => {
                    // Factor, then build explicit Q the BLAS2 way — both
                    // bandwidth-bound full passes.
                    model_blas2_gpu_seconds(&gpu_spec, m, n)
                        + baselines::blas2gpu::model_blas2_gpu_orgqr_seconds(&gpu_spec, m, n)
                }
                RpcaImpl::CaqrGpu => {
                    let gpu = Gpu::new(gpu_spec.clone());
                    // Factor + explicit Q, both on the GPU (Section V-C).
                    let f = caqr::model::model_caqr_seconds(&gpu, m, n, CaqrOptions::default())
                        .expect("CAQR model");
                    let q = caqr::model::model_caqr_apply_seconds(
                        &gpu,
                        m,
                        n,
                        n,
                        CaqrOptions::default(),
                    )
                    .expect("CAQR apply model");
                    f + q
                }
                RpcaImpl::MklSvdCpu => unreachable!(),
            };
            // R down to the host, small SVD there, U back up (Section VI-B:
            // "the SVD of R ... is cheap ... and done on the CPU").
            let r_bytes = (4 * n * n) as u64;
            let host_svd = pcie.transfer_seconds(r_bytes)
                + small_svd_seconds(&cpu, n)
                + pcie.transfer_seconds(r_bytes);
            // U' = Q * U, then L = U' (shrunk Sigma) V^T — two GPU GEMMs.
            let gemms = gemm_seconds_gpu(&gpu_spec, m, n, n) + gemm_seconds_gpu(&gpu_spec, m, n, n);
            let bytes = 4.0 * m as f64 * n as f64;
            let elementwise = ELEMENTWISE_PASSES * bytes / (gpu_spec.dram_bw_gbs * 1.0e9)
                + ELEMENTWISE_LAUNCHES * gpu_spec.launch_overhead_us * 1.0e-6;
            qr + host_svd + gemms + elementwise
        }
    }
}

/// Modelled iterations per second (the Table II metric) at the paper's
/// 110,592 x 100 video size.
pub fn model_iterations_per_second(which: RpcaImpl) -> f64 {
    1.0 / model_iteration_seconds(which, 110_592, 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ordering_and_scale() {
        // Paper: 0.9 / 8.7 / 27.0 iterations per second.
        let cpu = model_iterations_per_second(RpcaImpl::MklSvdCpu);
        let blas2 = model_iterations_per_second(RpcaImpl::Blas2GpuQr);
        let caqr = model_iterations_per_second(RpcaImpl::CaqrGpu);
        assert!(cpu < blas2 && blas2 < caqr, "{cpu} {blas2} {caqr}");
        assert!(cpu > 0.3 && cpu < 4.0, "MKL SVD modelled at {cpu} it/s");
        assert!(
            blas2 > 4.0 && blas2 < 20.0,
            "BLAS2 QR modelled at {blas2} it/s"
        );
        assert!(caqr > 15.0 && caqr < 60.0, "CAQR modelled at {caqr} it/s");
    }

    #[test]
    fn caqr_gives_about_3x_over_blas2() {
        // "we see an additional speedup of about 3x when using CAQR as
        // compared to the BLAS2 QR" — Amdahl-limited end-to-end.
        let blas2 = model_iterations_per_second(RpcaImpl::Blas2GpuQr);
        let caqr = model_iterations_per_second(RpcaImpl::CaqrGpu);
        let speedup = caqr / blas2;
        assert!(
            speedup > 1.6 && speedup < 5.0,
            "CAQR/BLAS2 iteration speedup {speedup}"
        );
    }

    #[test]
    fn gpu_gives_order_30x_over_cpu() {
        // "Overall our GPU solution gives us a 30x speedup over the original
        // CPU code".
        let cpu = model_iterations_per_second(RpcaImpl::MklSvdCpu);
        let caqr = model_iterations_per_second(RpcaImpl::CaqrGpu);
        let speedup = caqr / cpu;
        assert!(
            speedup > 10.0 && speedup < 60.0,
            "overall speedup {speedup}"
        );
    }

    #[test]
    fn qr_dominates_the_gpu_iteration() {
        // The premise of the whole application section: the SVD (QR) step is
        // where the time goes.
        let gpu_spec = DeviceSpec::gtx480();
        let qr = model_blas2_gpu_seconds(&gpu_spec, 110_592, 100)
            + baselines::blas2gpu::model_blas2_gpu_orgqr_seconds(&gpu_spec, 110_592, 100);
        let total = model_iteration_seconds(RpcaImpl::Blas2GpuQr, 110_592, 100);
        assert!(qr / total > 0.5, "QR fraction {}", qr / total);
    }

    #[test]
    fn five_hundred_iterations_in_about_20_seconds() {
        // "reducing the time to solve the problem completely from over nine
        // minutes to 17 seconds" (500+ iterations).
        let secs = 500.0 * model_iteration_seconds(RpcaImpl::CaqrGpu, 110_592, 100);
        assert!(
            secs > 8.0 && secs < 40.0,
            "500 iterations modelled at {secs} s"
        );
        let cpu_secs = 500.0 * model_iteration_seconds(RpcaImpl::MklSvdCpu, 110_592, 100);
        assert!(
            cpu_secs > 150.0,
            "CPU 500 iterations modelled at {cpu_secs} s"
        );
    }

    #[test]
    fn executed_iteration_tracks_the_table2_model() {
        // The solver's device ledger for one iteration at 27,648 x 100
        // (the paper's clip at half resolution), against the Table II
        // model at the same shape. Iterations past the first cost the
        // same, so (3-iteration run - 1-iteration run) / 2 isolates one
        // from the video upload and the initial SVD. The executed
        // iteration charged 0.83x the model when this check was added
        // (10.30 ms vs 12.44 ms); see EXPERIMENTS.md for why it is lower.
        use crate::solver::{rpca, RpcaParams};
        use crate::svd_qr::GpuCaqrBackend;
        use crate::video::{generate, VideoConfig};
        let cfg = VideoConfig {
            width: 192,
            height: 144,
            ..VideoConfig::paper_scale()
        };
        let video = generate::<f32>(&cfg);
        let (m, n) = video.matrix.shape();
        assert_eq!((m, n), (27_648, 100));
        let device_seconds = |max_iter| {
            let gpu = Gpu::new(DeviceSpec::gtx480());
            let backend = GpuCaqrBackend {
                gpu: &gpu,
                opts: CaqrOptions::default(),
            };
            let params = RpcaParams {
                tol: 0.0,
                max_iter,
                ..Default::default()
            };
            let r = rpca(&backend, &video.matrix, &params).unwrap();
            assert_eq!(r.iterations, max_iter);
            gpu.elapsed()
        };
        let per_iteration = (device_seconds(3) - device_seconds(1)) / 2.0;
        let model = model_iteration_seconds(RpcaImpl::CaqrGpu, m, n);
        let ratio = per_iteration / model;
        assert!(
            (ratio / 0.8281 - 1.0).abs() < 0.05,
            "executed {per_iteration} s vs model {model} s per iteration: ratio {ratio}"
        );
    }
}
