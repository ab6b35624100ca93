//! The paper's headline quantitative claims, asserted against the models —
//! this is the machine-checked version of EXPERIMENTS.md.

use baselines::QrImpl;
use caqr::microkernels::{apply_qt_h_block_gflops, ReductionStrategy};
use caqr::tuning::autotune;
use caqr::{BlockSize, CaqrOptions, Mode, Modelled, SimBackend};
use gpu_sim::{DeviceSpec, Gpu};
use rpca::{model_iterations_per_second, RpcaImpl};

/// Abstract: "outperform CULA ... by up to 17x for tall-skinny matrices and
/// Intel's MKL by up to 12x".
#[test]
fn abstract_headline_speedups() {
    let mut best_vs_gpu: f64 = 0.0;
    let mut best_vs_mkl: f64 = 0.0;
    for m in [10_000usize, 100_000, 1_000_000] {
        let c = QrImpl::Caqr.model_gflops(m, 192);
        best_vs_gpu = best_vs_gpu.max(
            c / QrImpl::Magma
                .model_gflops(m, 192)
                .max(QrImpl::Cula.model_gflops(m, 192)),
        );
        best_vs_mkl = best_vs_mkl.max(c / QrImpl::Mkl.model_gflops(m, 192));
    }
    assert!(
        best_vs_gpu > 10.0,
        "max speedup vs GPU libraries {best_vs_gpu:.1}x (paper: 17x)"
    );
    assert!(
        best_vs_mkl > 5.0,
        "max speedup vs MKL {best_vs_mkl:.1}x (paper: 12x)"
    );
}

/// Section IV-G: "our tuning improved the performance of apply_qt_h ... from
/// 55 GFLOPS to 388 GFLOPS", a ~7x gain.
#[test]
fn tuning_gains_about_7x() {
    let spec = DeviceSpec::c2050();
    let bs = BlockSize::c2050_best();
    let first = apply_qt_h_block_gflops(&spec, bs, ReductionStrategy::SharedParallel);
    let last = apply_qt_h_block_gflops(&spec, bs, ReductionStrategy::RegisterSerialTransposed);
    let gain = last / first;
    assert!(
        gain > 5.0 && gain < 10.0,
        "tuning gain {gain:.1}x (paper: 7.05x)"
    );
}

/// Section IV-F: "Our best overall performance comes from using 128x16
/// blocks."
#[test]
fn best_block_is_128x16() {
    let best = autotune(
        &DeviceSpec::c2050(),
        ReductionStrategy::RegisterSerialTransposed,
    );
    assert_eq!(best.bs, BlockSize { h: 128, w: 16 });
}

/// Table I row shape: CAQR throughput rises monotonically from 1k to 500k
/// rows and saturates around 200+ GFLOP/s.
#[test]
fn table1_caqr_row_shape() {
    let g: Vec<f64> = [1_000usize, 10_000, 50_000, 100_000, 500_000, 1_000_000]
        .iter()
        .map(|&m| QrImpl::Caqr.model_gflops(m, 192))
        .collect();
    for w in g.windows(2) {
        assert!(w[1] > w[0] * 0.98, "CAQR throughput dipped: {g:?}");
    }
    assert!(g[0] < 60.0, "1k point should be launch-bound: {}", g[0]);
    assert!(g[5] > 150.0, "1M point should saturate: {}", g[5]);
}

/// Figure 9: crossover where the libraries overtake CAQR lies in the low
/// thousands of columns at height 8192 (paper: ~4000).
#[test]
fn figure9_crossover_location() {
    let best_lib = |n: usize| {
        QrImpl::ALL[1..]
            .iter()
            .map(|i| i.model_gflops(8192, n))
            .fold(0.0, f64::max)
    };
    assert!(QrImpl::Caqr.model_gflops(8192, 512) > best_lib(512));
    assert!(QrImpl::Caqr.model_gflops(8192, 8192) < best_lib(8192));
}

/// Section V-C: explicit-Q retrieval is about as efficient as factoring.
#[test]
fn sorgqr_parity() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let (sim, cfg) = (
        SimBackend::sync(&gpu),
        CaqrOptions::default().drive_config(),
    );
    let (f, _) = sim
        .model(100_000, 192, &cfg, Modelled::Factor(Mode::Sync))
        .unwrap();
    let (q, _) = sim
        .model(100_000, 192, &cfg, Modelled::GenerateQ { nc: 192 })
        .unwrap();
    assert!(q / f < 2.2, "explicit Q at {:.2}x the factorization", q / f);
}

/// Table II: 0.9 / 8.7 / 27.0 iterations per second, i.e. ~3x from CAQR
/// over BLAS2 and ~30x over the CPU.
#[test]
fn table2_iteration_rates() {
    let cpu = model_iterations_per_second(RpcaImpl::MklSvdCpu);
    let blas2 = model_iterations_per_second(RpcaImpl::Blas2GpuQr);
    let caqr_rate = model_iterations_per_second(RpcaImpl::CaqrGpu);
    assert!(cpu < blas2 && blas2 < caqr_rate);
    let r_blas2 = caqr_rate / blas2;
    let r_cpu = caqr_rate / cpu;
    assert!(
        r_blas2 > 2.0 && r_blas2 < 4.5,
        "CAQR/BLAS2 = {r_blas2:.1} (paper 3.1)"
    );
    assert!(
        r_cpu > 10.0 && r_cpu < 45.0,
        "CAQR/CPU = {r_cpu:.1} (paper 30)"
    );
    // "reducing the time to solve the problem ... to 17 seconds":
    let t500 = 500.0 / caqr_rate;
    assert!(t500 < 30.0, "500 iterations take {t500:.0}s (paper 17s)");
}

/// Section I: "It is important to note that everything we compare to is
/// parallel" — all baselines use multiple cores / a full GPU, and none is a
/// strawman: every baseline beats a single-core bandwidth bound on square
/// matrices.
#[test]
fn baselines_are_not_strawmen() {
    for i in &QrImpl::ALL[1..] {
        let g = i.model_gflops(8192, 8192);
        assert!(g > 20.0, "{} too slow on square matrices: {g}", i.name());
    }
}
