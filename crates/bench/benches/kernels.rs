//! Criterion wall-clock benches of the real kernel arithmetic: the
//! simulated GPU actually computes every factorization on the rayon pool,
//! and these benches measure that execution (host wall-clock, not the
//! modelled GPU time — the modelled numbers come from the harness binaries).

use caqr::{BlockSize, CaqrOptions, ReductionStrategy, SimBackend};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceSpec, Gpu};
use std::hint::black_box;

fn bench_tsqr(c: &mut Criterion) {
    let mut group = c.benchmark_group("tsqr_factor");
    group.sample_size(10);
    for &m in &[4096usize, 16384, 65536] {
        let a = dense::generate::uniform::<f32>(m, 16, 1);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            let gpu = Gpu::new(DeviceSpec::c2050());
            b.iter(|| {
                let f = caqr::tsqr(
                    &gpu,
                    a.clone(),
                    BlockSize::c2050_best(),
                    ReductionStrategy::RegisterSerialTransposed,
                )
                .unwrap();
                black_box(f.r())
            });
        });
    }
    group.finish();
}

fn bench_caqr_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("caqr_factor");
    group.sample_size(10);
    for &(m, n) in &[(4096usize, 64usize), (8192, 64), (8192, 128)] {
        let a = dense::generate::uniform::<f32>(m, n, 2);
        group.bench_with_input(
            BenchmarkId::new("sim_gpu", format!("{m}x{n}")),
            &m,
            |b, _| {
                let gpu = Gpu::new(DeviceSpec::c2050());
                b.iter(|| {
                    let f = caqr::caqr::caqr(&gpu, a.clone(), CaqrOptions::default()).unwrap();
                    black_box(f.r())
                });
            },
        );
    }
    group.finish();
}

fn bench_apply_qt(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_qt");
    group.sample_size(10);
    let m = 16384;
    let gpu = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(m, 16, 3);
    let f = caqr::tsqr(
        &gpu,
        a,
        BlockSize::c2050_best(),
        ReductionStrategy::RegisterSerialTransposed,
    )
    .unwrap();
    let c0 = dense::generate::uniform::<f32>(m, 16, 4);
    let sim = SimBackend::sync(&gpu);
    group.bench_function("tsqr_qt_16k_x_16", |b| {
        b.iter(|| {
            let mut cm = c0.clone();
            f.apply_on(&sim, &mut cm, true).unwrap();
            black_box(cm)
        });
    });
    group.finish();
}

fn bench_dense_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense");
    group.sample_size(10);
    let a = dense::generate::uniform::<f32>(512, 512, 5);
    let b_m = dense::generate::uniform::<f32>(512, 512, 6);
    group.bench_function("gemm_512", |bch| {
        bch.iter(|| {
            let mut out = dense::Matrix::<f32>::zeros(512, 512);
            dense::blas3::gemm(
                dense::blas3::Trans::No,
                dense::blas3::Trans::No,
                1.0,
                a.as_ref(),
                b_m.as_ref(),
                0.0,
                out.as_mut(),
            );
            black_box(out)
        });
    });
    let tall = dense::generate::uniform::<f32>(8192, 32, 7);
    group.bench_function("geqrf_8192x32", |bch| {
        bch.iter(|| {
            let mut f = tall.clone();
            black_box(dense::blocked::geqrf(&mut f, 32))
        });
    });
    let small = dense::generate::uniform::<f64>(100, 100, 8);
    group.bench_function("jacobi_svd_100", |bch| {
        bch.iter(|| black_box(dense::svd::svd(&small).sigma));
    });
    group.bench_function("golub_kahan_svd_100", |bch| {
        bch.iter(|| black_box(dense::gk_svd::svd_golub_kahan(&small).sigma));
    });
    group.finish();
}

/// The tentpole comparison: per-reflector BLAS2 `larf` sweeps vs the
/// compact-WY 3-GEMM `larfb` apply, on the paper's tall-skinny panel shape.
/// Both paths run the same tile grid over the same factored panel; only the
/// inner apply differs.
fn bench_larf_vs_larfb(c: &mut Criterion) {
    use caqr::block::tile_panel;
    use caqr::blockops;
    use dense::MatPtr;

    let mut group = c.benchmark_group("apply_qt_h");
    group.sample_size(10);
    for &(m, w, h) in &[(10240usize, 16usize, 128usize), (4096, 8, 64)] {
        let mut panel = dense::generate::uniform::<f32>(m, w, 11);
        let tiles = tile_panel(0, m, h, w);
        let wys: Vec<_> = {
            let p = MatPtr::new(&mut panel);
            tiles
                .iter()
                .map(|&t| blockops::factor_tile(p, t, 0, w))
                .collect()
        };
        let c0 = dense::generate::uniform::<f32>(m, w, 12);
        let shape = format!("{m}x{w}");
        group.bench_with_input(BenchmarkId::new("larfb_wy", &shape), &m, |b, _| {
            b.iter(|| {
                let mut cm = c0.clone();
                let cp = MatPtr::new(&mut cm);
                for (ti, &tile) in tiles.iter().enumerate() {
                    blockops::apply_tile_wy(&wys[ti], cp, tile, 0, w, true);
                }
                black_box(cm)
            });
        });
        group.bench_with_input(
            BenchmarkId::new("larf_per_reflector", &shape),
            &m,
            |b, _| {
                b.iter(|| {
                    let mut cm = c0.clone();
                    let cp = MatPtr::new(&mut cm);
                    let vp = MatPtr::new_readonly(&panel);
                    for (ti, &tile) in tiles.iter().enumerate() {
                        blockops::apply_tile_reflectors(
                            vp,
                            cp,
                            tile,
                            0,
                            w,
                            &wys[ti].tau,
                            0,
                            w,
                            true,
                        );
                    }
                    black_box(cm)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tsqr,
    bench_caqr_factor,
    bench_apply_qt,
    bench_dense_primitives,
    bench_larf_vs_larfb
);
criterion_main!(benches);
