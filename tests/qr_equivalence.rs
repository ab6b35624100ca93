//! Cross-crate equivalence: CAQR on the simulated GPU must produce the same
//! factorization quality (and the same `R` up to column signs) as the
//! reference Householder implementations in `dense`, across shapes, block
//! sizes, strategies and precisions.

use caqr::{drive, BlockSize, CaqrOptions, Factorization, Mode, ReductionStrategy, SimBackend};
use dense::matrix::Matrix;
use dense::norms::{orthogonality_error, reconstruction_error};
use dense::scalar::Scalar;
use gpu_sim::{DeviceSpec, Gpu};
use proptest::prelude::*;

fn opts(h: usize, w: usize) -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h, w },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
    }
}

/// The synchronous Figure-4 loop on `g`.
fn sync_run<T: Scalar>(g: &Gpu, a: Matrix<T>, o: CaqrOptions) -> Factorization<T> {
    drive(&SimBackend::sync(g), a, &o.drive_config(), Mode::Sync).unwrap()
}

/// [`sync_run`] with the explicit `(Q, R)` formed on the simulator.
fn sync_qr<T: Scalar>(g: &Gpu, a: Matrix<T>, o: CaqrOptions) -> (Matrix<T>, Matrix<T>) {
    let k = a.rows().min(a.cols());
    let f = sync_run(g, a, o);
    (f.generate_q_on(&SimBackend::sync(g), k).unwrap(), f.r())
}

#[test]
fn caqr_matches_reference_r_across_shapes() {
    let g = Gpu::new(DeviceSpec::c2050());
    for (m, n, h, w, seed) in [
        (64usize, 8usize, 16usize, 4usize, 1u64),
        (200, 24, 32, 8, 2),
        (513, 33, 64, 16, 3),
        (1024, 100, 128, 16, 4),
        (96, 96, 32, 8, 5),
        (50, 90, 16, 4, 6), // wide
    ] {
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let f = sync_run(&g, a.clone(), opts(h, w));
        let r = f.r();
        let mut reference = a.clone();
        dense::blocked::geqrf(&mut reference, 16);
        let k = m.min(n);
        for j in 0..n {
            for i in 0..=j.min(k - 1) {
                assert!(
                    (r[(i, j)].abs() - reference[(i, j)].abs()).abs() < 1e-9,
                    "({m},{n}) |R| mismatch at ({i},{j})"
                );
            }
        }
    }
}

// Strategy bit-equivalence moved to `backend_conformance.rs`, which checks
// every strategy against the host reference through the generic driver.

#[test]
fn single_precision_quality_is_proportional_to_eps() {
    // The paper runs in single precision; errors should scale with f32 eps,
    // not blow up with the tree depth.
    let g = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(20_000, 32, 8);
    let (q, r) = sync_qr(&g, a.clone(), CaqrOptions::default());
    let rec = reconstruction_error(&a, &q, &r);
    let ort = orthogonality_error(&q);
    assert!(rec < 5e-6, "f32 reconstruction {rec}");
    assert!(ort < 5e-5, "f32 orthogonality {ort}");
}

#[test]
fn caqr_on_graded_and_low_rank_matrices() {
    let g = Gpu::new(DeviceSpec::c2050());
    // Graded singular values over 10 decades.
    let graded = dense::generate::graded::<f64>(400, 12, 0.1, 9);
    let (q, r) = sync_qr(&g, graded.clone(), opts(32, 8));
    assert!(reconstruction_error(&graded, &q, &r) < 1e-12);
    assert!(orthogonality_error(&q) < 1e-12);
    // Numerically rank-deficient input: Q must still be orthogonal.
    let lr = dense::generate::low_rank::<f64>(300, 16, 3, 0.0, 10);
    let (q2, r2) = sync_qr(&g, lr.clone(), opts(32, 8));
    assert!(reconstruction_error(&lr, &q2, &r2) < 1e-12);
    assert!(orthogonality_error(&q2) < 1e-12);
}

#[test]
fn krylov_basis_stays_orthogonal_under_tsqr() {
    // The s-step motivation: TSQR — one 16-wide panel — handles nearly
    // dependent columns.
    let g = Gpu::new(DeviceSpec::c2050());
    let basis = dense::generate::krylov_basis::<f64>(8192, 10, 11);
    let f = sync_run(&g, basis, CaqrOptions::default());
    let q = f.generate_q_on(&SimBackend::sync(&g), 10).unwrap();
    assert!(orthogonality_error(&q) < 1e-11);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn caqr_factorization_invariants(
        m in 20usize..200,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        prop_assume!(m >= n);
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let g = Gpu::new(DeviceSpec::c2050());
        let (q, r) = sync_qr(&g, a.clone(), opts(16, 4));
        // Invariant 1: reconstruction.
        prop_assert!(reconstruction_error(&a, &q, &r) < 1e-11);
        // Invariant 2: orthogonality.
        prop_assert!(orthogonality_error(&q) < 1e-11);
        // Invariant 3: R upper triangular with the same column norms as A
        // (Householder preserves norms: ||A e_j||_2 == ||R e_j||_2 exactly
        // in exact arithmetic).
        for j in 0..n {
            let na = dense::blas1::nrm2(a.col(j));
            let mut nr = 0.0;
            for i in 0..=j {
                nr += r[(i, j)] * r[(i, j)];
            }
            prop_assert!((na - nr.sqrt()).abs() < 1e-10 * na.max(1.0));
        }
    }

    #[test]
    fn tsqr_least_squares_matches_cpu(
        m in 30usize..300,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        prop_assume!(m >= n * 2);
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let b: Vec<f64> = (0..m).map(|i| ((i * 31 + 7) % 17) as f64 - 8.0).collect();
        let g = Gpu::new(DeviceSpec::c2050());
        let f = sync_run(&g, a.clone(), opts(16, 4));
        let b1 = dense::matrix::Matrix::from_col_major(m, 1, b.clone());
        let x1 = f.least_squares_on(&SimBackend::sync(&g), &b1).unwrap();
        let x2 = dense::blocked::least_squares(a, &b);
        for (p, q) in x1.col(0).iter().zip(&x2) {
            prop_assert!((p - q).abs() < 1e-7 * (1.0 + q.abs()), "{p} vs {q}");
        }
    }
}
