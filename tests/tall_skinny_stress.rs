//! Stress coverage of the extreme aspect ratios the paper's introduction
//! motivates: real execution at moderately large sizes and model-only
//! evaluation at the paper's most extreme shapes.

use caqr::{
    drive, BlockSize, CaqrOptions, Mode, Modelled, ReductionStrategy, SimBackend, TreeShape,
};
use dense::norms::{orthogonality_error, reconstruction_error};
use gpu_sim::{DeviceSpec, Gpu};

#[test]
fn execute_200k_by_8_like_an_s_step_method() {
    // "millions of rows by less than ten columns" — run a fifth of a
    // million rows for real.
    let m = 200_000;
    let n = 8;
    let a = dense::generate::uniform::<f32>(m, n, 1);
    let gpu = Gpu::new(DeviceSpec::c2050());
    let sim = SimBackend::sync(&gpu);
    let cfg = CaqrOptions::default().drive_config();
    let f = drive(&sim, a.clone(), &cfg, Mode::Sync).unwrap();
    let r = f.r();
    // Column-norm preservation is a cheap full-strength check at this size.
    for j in 0..n {
        let na = dense::blas1::nrm2(a.col(j)) as f64;
        let mut nr = 0.0f64;
        for i in 0..=j {
            nr += (r[(i, j)] as f64) * (r[(i, j)] as f64);
        }
        let nr = nr.sqrt();
        assert!((na - nr).abs() < 1e-3 * na, "column {j}: {na} vs {nr}");
    }
    // Deep tree: 1563 tiles at arity 8 -> 4 levels.
    assert_eq!(f.panels[0].levels.len(), 4);
    // Q^T b solve against the CPU reference on a narrow slice.
    let b: Vec<f32> = (0..m).map(|i| ((i % 97) as f32) / 97.0 - 0.5).collect();
    let mut c = dense::Matrix::from_fn(m, 1, |i, _| b[i]);
    f.apply_on(&sim, &mut c, true).unwrap();
    let mut x: Vec<f32> = (0..n).map(|i| c[(i, 0)]).collect();
    dense::blas2::trsv_upper(r.view(0, 0, n, n), &mut x);
    let x_ref = dense::blocked::least_squares(a, &b);
    for (p, q) in x.iter().zip(&x_ref) {
        assert!((p - q).abs() < 2e-2 * (1.0 + q.abs()), "{p} vs {q}");
    }
}

#[test]
fn execute_32k_by_256_full_caqr() {
    let a = dense::generate::uniform::<f32>(32_768, 256, 2);
    let gpu = Gpu::new(DeviceSpec::c2050());
    let sim = SimBackend::sync(&gpu);
    let f = drive(
        &sim,
        a.clone(),
        &CaqrOptions::default().drive_config(),
        Mode::Sync,
    )
    .unwrap();
    // Spot-check orthogonality through a thin probe instead of forming the
    // full Q: ||Q^T (A e_j)|| must equal ||A e_j||.
    let mut probe = dense::Matrix::from_fn(32_768, 1, |i, _| a[(i, 100)]);
    let before = dense::blas1::nrm2(probe.col(0));
    f.apply_on(&sim, &mut probe, true).unwrap();
    let after = dense::blas1::nrm2(probe.col(0));
    assert!(
        (before - after).abs() < 1e-3 * before,
        "{before} vs {after}"
    );
    // And Q^T A e_j == R e_j (the 100th column of R).
    let r = f.r();
    for i in 0..256 {
        let want = if i <= 100 { r[(i, 100)] } else { 0.0 };
        assert!(
            (probe[(i, 0)] - want).abs() < 2e-3 * before,
            "row {i}: {} vs {want}",
            probe[(i, 0)]
        );
    }
}

#[test]
fn model_handles_the_papers_most_extreme_shapes() {
    // 2^23 x 8 and 1M x 192: the sweeps must stay finite, positive and
    // produce monotone times without allocating matrix memory.
    let gpu = Gpu::new(DeviceSpec::c2050());
    let sim = SimBackend::sync(&gpu);
    let (cfg, factor) = (
        CaqrOptions::default().drive_config(),
        Modelled::Factor(Mode::Sync),
    );
    let (t1, _) = sim.model(1 << 23, 8, &cfg, factor).unwrap();
    let (t2, _) = sim.model(1 << 23, 192, &cfg, factor).unwrap();
    assert!(t1.is_finite() && t1 > 0.0);
    assert!(t2 > t1, "wider matrix must take longer: {t2} vs {t1}");
    let g = dense::geqrf_flops(1 << 23, 8) / t1 / 1e9;
    assert!(
        g > 1.0 && g < 1030.0,
        "8-column throughput {g} GFLOP/s out of range"
    );
}

#[test]
fn small_blocks_with_huge_aspect_ratio_execute_correctly() {
    // Tiny blocks force a very deep binomial tree — worst case for the
    // bookkeeping. 10_000 x 4 with 8x4 blocks: 1250 tiles, ~11 levels.
    let a = dense::generate::uniform::<f64>(10_000, 4, 3);
    let gpu = Gpu::new(DeviceSpec::c2050());
    let o = CaqrOptions {
        bs: BlockSize { h: 8, w: 4 },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: TreeShape::Binomial,
    };
    let sim = SimBackend::sync(&gpu);
    let f = drive(&sim, a.clone(), &o.drive_config(), Mode::Sync).unwrap();
    let (q, r) = (f.generate_q_on(&sim, 4).unwrap(), f.r());
    assert!(reconstruction_error(&a, &q, &r) < 1e-11);
    assert!(orthogonality_error(&q) < 1e-11);
}
