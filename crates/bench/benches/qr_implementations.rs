//! Cross-implementation benches: CAQR on the simulated GPU vs the host
//! blocked-Householder reference vs Gram-Schmidt, all computing the same
//! factorization for real; plus the evaluation speed of the analytic models
//! that drive the figure sweeps.

use caqr::{drive, CaqrOptions, Mode, Modelled, SimBackend};
use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{DeviceSpec, Gpu};
use std::hint::black_box;

fn bench_real_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_qr_8192x64");
    group.sample_size(10);
    let a = dense::generate::uniform::<f32>(8192, 64, 1);

    group.bench_function("caqr_sim_gpu", |b| {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let cfg = CaqrOptions::default().drive_config();
        b.iter(|| {
            let f = drive(&SimBackend::sync(&gpu), a.clone(), &cfg, Mode::Sync).unwrap();
            black_box(f.r())
        });
    });
    group.bench_function("blocked_householder_cpu", |b| {
        b.iter(|| {
            let mut f = a.clone();
            black_box(dense::blocked::geqrf(&mut f, 32))
        });
    });
    group.bench_function("caqr_multicore_cpu", |b| {
        b.iter(|| {
            let f = caqr::caqr_cpu(a.clone(), caqr::CpuCaqrOptions::for_width(64)).unwrap();
            black_box(f.r())
        });
    });
    group.bench_function("modified_gram_schmidt", |b| {
        b.iter(|| black_box(dense::gram_schmidt::modified_gram_schmidt(&a)));
    });
    group.bench_function("cholesky_qr", |b| {
        b.iter(|| black_box(dense::gram_schmidt::cholesky_qr(&a).unwrap()));
    });
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_models");
    group.bench_function("model_caqr_1M_x_192", |b| {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let cfg = CaqrOptions::default().drive_config();
        let factor = Modelled::Factor(Mode::Sync);
        b.iter(|| {
            black_box(
                SimBackend::sync(&gpu)
                    .model(1_000_000, 192, &cfg, factor)
                    .unwrap(),
            )
        });
    });
    group.bench_function("model_all_baselines_1M_x_192", |b| {
        b.iter(|| {
            for i in baselines::QrImpl::ALL {
                black_box(i.model_gflops(1_000_000, 192));
            }
        });
    });
    group.finish();
}

fn bench_host_tall_skinny(c: &mut Criterion) {
    // The communication-avoiding effect on the *host* hardware: for a
    // 500k x 16 matrix, cache-resident TSQR tiles vs the panel-streaming
    // blocked Householder reference.
    let mut group = c.benchmark_group("host_tall_skinny_500k_x_16");
    group.sample_size(10);
    let a = dense::generate::uniform::<f32>(500_000, 16, 9);
    group.bench_function("caqr_multicore_cpu", |b| {
        b.iter(|| {
            let f = caqr::caqr_cpu(a.clone(), caqr::CpuCaqrOptions::for_width(16)).unwrap();
            black_box(f.r())
        });
    });
    group.bench_function("blocked_householder_cpu", |b| {
        b.iter(|| {
            let mut f = a.clone();
            black_box(dense::blocked::geqrf(&mut f, 16))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_real_qr, bench_models, bench_host_tall_skinny);
criterion_main!(benches);
