//! CAQR — Communication-Avoiding QR for general matrices (Section II-C) —
//! and the options of a run on the simulated GPU. The host pseudocode of
//! Figure 4 is [`crate::backend::drive`]'s panel loop:
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
//! becomes both shorter and narrower after each step"). On the simulator
//! a run is `drive(&SimBackend::sync(&gpu), a, &opts.drive_config(),
//! Mode::Sync)`; any shape factors (wide matrices factor the leading
//! `min(m, n)` panels and update the rest), and the input is always
//! scanned for NaN/inf first by a charged `health_check` launch.

use crate::backend::DriveConfig;
use crate::block::{BlockSize, TreeShape};
use crate::microkernels::ReductionStrategy;

/// Options for a CAQR factorization.
#[derive(Clone, Copy, Debug)]
pub struct CaqrOptions {
    /// Block size (panel width = `bs.w`).
    pub bs: BlockSize,
    /// Kernel tuning strategy (affects modelled cost only).
    pub strategy: ReductionStrategy,
    /// Reduction-tree shape (the GPU default is the `h/w`-ary device tree).
    pub tree: TreeShape,
}

impl Default for CaqrOptions {
    /// The paper's shipping configuration: 128 x 16 blocks, register-file
    /// serial reductions with pre-transposed panels.
    fn default() -> Self {
        CaqrOptions {
            bs: BlockSize::c2050_best(),
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
        }
    }
}

impl CaqrOptions {
    /// The [`DriveConfig`] of a simulator run with these options.
    pub fn drive_config(&self) -> DriveConfig {
        DriveConfig {
            bs: self.bs,
            strategy: self.strategy,
            tree: self.tree,
            check_finite: true,
            verify_checksums: false,
            health_context: "caqr input",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{drive, Factorization, Mode, SimBackend};
    use crate::error::CaqrError;
    use dense::generate;
    use dense::matrix::Matrix;
    use dense::norms::{orthogonality_error, reconstruction_error};
    use gpu_sim::{DeviceSpec, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::c2050())
    }

    fn sync_run(g: &Gpu, a: Matrix<f64>, o: CaqrOptions) -> Result<Factorization<f64>, CaqrError> {
        drive(&SimBackend::sync(g), a, &o.drive_config(), Mode::Sync)
    }

    /// Factor on the synchronous simulator and form the explicit `(Q, R)`.
    fn sync_qr(g: &Gpu, a: Matrix<f64>, o: CaqrOptions) -> (Matrix<f64>, Matrix<f64>) {
        let k = a.rows().min(a.cols());
        let f = sync_run(g, a, o).unwrap();
        (f.generate_q_on(&SimBackend::sync(g), k).unwrap(), f.r())
    }

    fn opts_small() -> CaqrOptions {
        CaqrOptions {
            bs: BlockSize { h: 32, w: 8 },
            strategy: ReductionStrategy::RegisterSerialTransposed,
            tree: TreeShape::DeviceArity,
        }
    }

    fn check_caqr(m: usize, n: usize, opts: CaqrOptions, seed: u64) {
        let a = generate::uniform::<f64>(m, n, seed);
        let g = gpu();
        let (q, r) = sync_qr(&g, a.clone(), opts);
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
        let f = sync_run(&g, a.clone(), opts_small()).unwrap();
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
        let f = sync_run(&g, a, opts_small()).unwrap();
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
        let f = sync_run(&g, a, opts_small()).unwrap();
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
        let f = sync_run(&g, a, opts_small()).unwrap();
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
        let f = sync_run(&g, a, opts_small()).unwrap();
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
            let (q, r) = sync_qr(&g, a.clone(), o);
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
            let _ = sync_run(&g, a.clone(), o).unwrap();
            g.ledger().calls
        };
        assert!(launches(TreeShape::Binomial) > launches(TreeShape::DeviceArity));
    }

    #[test]
    fn empty_matrix_rejected() {
        let g = gpu();
        let a = Matrix::<f64>::zeros(0, 0);
        assert!(sync_run(&g, a, opts_small()).is_err());
    }

    #[test]
    fn zero_matrix_factors_cleanly() {
        // All-zero input: R must be zero, Q orthogonal (identity-ish).
        let g = gpu();
        let a = Matrix::<f64>::zeros(96, 16);
        let (q, r) = sync_qr(&g, a, opts_small());
        assert!(dense::norms::max_abs(&r) == 0.0);
        assert!(orthogonality_error(&q) < 1e-13);
    }
}
