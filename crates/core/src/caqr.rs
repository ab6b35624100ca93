//! CAQR — Communication-Avoiding QR for general matrices (Section II-C),
//! running entirely on the simulated GPU with the host pseudocode of
//! Figure 4:
//!
//! ```text
//! foreach panel
//!     do small QRs in panel                  (factor)
//!     foreach level in tree
//!         do small QRs in tree               (factor_tree)
//!     apply Q^T horizontally across trailing (apply_qt_h)
//!     foreach level in tree
//!         apply Q^T from the tree            (apply_qt_tree)
//! ```
//!
//! After each panel the grid is redrawn `w` rows lower ("the trailing matrix
//! becomes both shorter and narrower after each step").

use crate::backend::{drive, DriveConfig, Factorization, Mode, SimBackend};
use crate::block::{BlockSize, TreeShape};
use crate::error::CaqrError;
use crate::kernels::THREADS;
use crate::microkernels::ReductionStrategy;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::Gpu;

/// Options for a CAQR factorization.
#[derive(Clone, Copy, Debug)]
pub struct CaqrOptions {
    /// Block size (panel width = `bs.w`).
    pub bs: BlockSize,
    /// Kernel tuning strategy (affects modelled cost only).
    pub strategy: ReductionStrategy,
    /// Reduction-tree shape (the GPU default is the `h/w`-ary device tree).
    pub tree: TreeShape,
    /// Scan the input for NaN/inf with a charged `health_check` launch
    /// before factoring (on by default — "garbage in" becomes a typed
    /// [`CaqrError::NonFinite`] instead of silent NaN propagation). The
    /// launch is counted in [`Factorization::launches`] and charged
    /// identically by [`crate::model::model_caqr_seconds`].
    pub check_finite: bool,
}

impl Default for CaqrOptions {
    /// The paper's shipping configuration: 128 x 16 blocks, register-file
    /// serial reductions with pre-transposed panels, input health check on.
    fn default() -> Self {
        CaqrOptions {
            bs: BlockSize::c2050_best(),
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
            check_finite: true,
        }
    }
}

impl CaqrOptions {
    /// The [`DriveConfig`] of a simulator run with these options.
    pub(crate) fn drive_config(&self) -> DriveConfig {
        DriveConfig {
            bs: self.bs,
            strategy: self.strategy,
            tree: self.tree,
            check_finite: self.check_finite,
            verify_checksums: false,
            health_context: "caqr input",
        }
    }
}

/// Factor `a` with CAQR on the simulated GPU. Supports any shape (wide
/// matrices factor the leading `min(m, n)` panels and update the rest).
///
/// A thin shim over the generic [`crate::backend::drive`] loop on a
/// synchronous [`SimBackend`] (DESIGN.md §13) — the Figure-4 pseudocode
/// lives there now, shared with every other executor.
pub fn caqr<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    opts: CaqrOptions,
) -> Result<Factorization<T>, CaqrError> {
    drive(&SimBackend::sync(gpu), a, &opts.drive_config(), Mode::Sync)
}

/// Convenience: factor and return `(Q, R)` explicitly (test/demo helper;
/// production callers keep the implicit form).
pub fn caqr_qr<T: Scalar>(
    gpu: &Gpu,
    a: Matrix<T>,
    opts: CaqrOptions,
) -> Result<(Matrix<T>, Matrix<T>), CaqrError> {
    let k = a.rows().min(a.cols());
    let f = caqr(gpu, a, opts)?;
    let q = f.generate_q_on(&SimBackend::sync(gpu), k)?;
    Ok((q, f.r()))
}

/// Hint for `THREADS`-related sizing reused by downstream crates.
pub const fn threads_per_block() -> usize {
    THREADS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::generate;
    use dense::norms::{orthogonality_error, reconstruction_error};
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn opts_small() -> CaqrOptions {
        CaqrOptions {
            bs: BlockSize { h: 32, w: 8 },
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
            check_finite: true,
        }
    }

    fn check_caqr(m: usize, n: usize, opts: CaqrOptions, seed: u64) {
        let a = generate::uniform::<f64>(m, n, seed);
        let g = gpu();
        let (q, r) = caqr_qr(&g, a.clone(), opts).unwrap();
        let rec = reconstruction_error(&a, &q, &r);
        let ort = orthogonality_error(&q);
        assert!(rec < 1e-12, "reconstruction {rec} for {m}x{n}");
        assert!(ort < 1e-12, "orthogonality {ort} for {m}x{n}");
        // R upper triangular.
        for j in 0..r.cols() {
            for i in j + 1..r.rows() {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn caqr_tall_multi_panel() {
        check_caqr(256, 24, opts_small(), 21);
    }

    #[test]
    fn caqr_square() {
        check_caqr(64, 64, opts_small(), 22);
    }

    #[test]
    fn caqr_ragged_everything() {
        // Rows not a tile multiple, columns not a panel multiple.
        check_caqr(213, 29, opts_small(), 23);
    }

    #[test]
    fn caqr_wide_matrix() {
        check_caqr(40, 70, opts_small(), 24);
    }

    #[test]
    fn caqr_single_panel_degenerates_to_tsqr() {
        check_caqr(200, 8, opts_small(), 25);
    }

    #[test]
    fn caqr_paper_block_size() {
        check_caqr(1024, 48, CaqrOptions::default(), 26);
    }

    #[test]
    fn caqr_r_matches_blocked_householder_up_to_sign() {
        let a = generate::uniform::<f64>(300, 40, 27);
        let g = gpu();
        let f = caqr(&g, a.clone(), opts_small()).unwrap();
        let r = f.r();
        let mut af = a.clone();
        dense::blocked::geqrf(&mut af, 16);
        for j in 0..40 {
            for i in 0..=j {
                assert!(
                    (r[(i, j)].abs() - af[(i, j)].abs()).abs() < 1e-10,
                    "|R| mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn caqr_least_squares_recovers_planted_solution() {
        let m = 180;
        let n = 14;
        let a = generate::uniform::<f64>(m, n, 28);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7) - 3.0).collect();
        let mut b = vec![0.0; m];
        for j in 0..n {
            for i in 0..m {
                b[i] += a[(i, j)] * x_true[j];
            }
        }
        let g = gpu();
        let f = caqr(&g, a, opts_small()).unwrap();
        let b = Matrix::from_col_major(m, 1, b);
        let x = f.least_squares_on(&SimBackend::sync(&g), &b).unwrap();
        for (got, want) in x.col(0).iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn multi_rhs_least_squares_matches_single() {
        let m = 120;
        let n = 10;
        let a = generate::uniform::<f64>(m, n, 55);
        let b = generate::uniform::<f64>(m, 3, 56);
        let g = gpu();
        let f = caqr(&g, a, opts_small()).unwrap();
        let sim = SimBackend::sync(&g);
        let x = f.least_squares_on(&sim, &b).unwrap();
        for j in 0..3 {
            let bj = Matrix::from_col_major(m, 1, b.col(j).to_vec());
            let xj = f.least_squares_on(&sim, &bj).unwrap();
            for i in 0..n {
                assert!((x[(i, j)] - xj[(i, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn apply_qt_q_round_trip() {
        let a = generate::uniform::<f64>(150, 20, 29);
        let g = gpu();
        let f = caqr(&g, a, opts_small()).unwrap();
        let c0 = generate::uniform::<f64>(150, 5, 30);
        let mut c = c0.clone();
        f.apply_on(&SimBackend::sync(&g), &mut c, true).unwrap();
        f.apply_on(&SimBackend::sync(&g), &mut c, false).unwrap();
        for i in 0..150 {
            for j in 0..5 {
                assert!((c[(i, j)] - c0[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn launch_count_matches_ledger() {
        let g = gpu();
        let a = generate::uniform::<f64>(256, 24, 31);
        let f = caqr(&g, a, opts_small()).unwrap();
        assert_eq!(f.launches as u64, g.ledger().calls);
    }

    #[test]
    fn tree_shape_does_not_change_the_factorization_quality() {
        // Different tree shapes pick different Householder orderings, so R
        // entries differ in sign/rounding — but reconstruction and
        // orthogonality must be equally good, and |R| diagonals must agree
        // (column norms are shape-invariant).
        let a = generate::uniform::<f64>(640, 24, 33);
        let mut diags: Vec<Vec<f64>> = Vec::new();
        for tree in [
            TreeShape::DeviceArity,
            TreeShape::Binomial,
            TreeShape::Arity(3),
        ] {
            let g = gpu();
            let o = CaqrOptions {
                tree,
                ..opts_small()
            };
            let (q, r) = caqr_qr(&g, a.clone(), o).unwrap();
            assert!(reconstruction_error(&a, &q, &r) < 1e-12, "{tree:?}");
            assert!(orthogonality_error(&q) < 1e-12, "{tree:?}");
            diags.push((0..24).map(|d| r[(d, d)].abs()).collect());
        }
        for d in &diags[1..] {
            for (x, y) in d.iter().zip(&diags[0]) {
                assert!(
                    (x - y).abs() < 1e-10,
                    "diagonal magnitude changed with tree shape"
                );
            }
        }
    }

    #[test]
    fn binomial_tree_issues_more_launches_than_device_tree() {
        let a = generate::uniform::<f64>(2048, 16, 34);
        let launches = |tree: TreeShape| {
            let g = gpu();
            let o = CaqrOptions {
                tree,
                bs: BlockSize { h: 64, w: 16 },
                ..opts_small()
            };
            let _ = caqr(&g, a.clone(), o).unwrap();
            g.ledger().calls
        };
        assert!(launches(TreeShape::Binomial) > launches(TreeShape::DeviceArity));
    }

    #[test]
    fn empty_matrix_rejected() {
        let g = gpu();
        let a = Matrix::<f64>::zeros(0, 0);
        assert!(caqr(&g, a, opts_small()).is_err());
    }

    #[test]
    fn zero_matrix_factors_cleanly() {
        // All-zero input: R must be zero, Q orthogonal (identity-ish).
        let g = gpu();
        let a = Matrix::<f64>::zeros(96, 16);
        let (q, r) = caqr_qr(&g, a, opts_small()).unwrap();
        assert!(dense::norms::max_abs(&r) == 0.0);
        assert!(orthogonality_error(&q) < 1e-13);
    }
}
