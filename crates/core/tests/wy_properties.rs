//! Property tests pinning the compact-WY fast path to the per-reflector
//! reference: the 3-GEMM `larfb` apply and the structured stacked-V tree
//! apply must agree with one-reflector-at-a-time `larf` sweeps on random
//! shapes, and the end-to-end factorizations must still reconstruct `A`.

use caqr::block::Tile;
use caqr::blockops;
use caqr::{drive, BlockSize, CaqrOptions, Mode, ReductionStrategy, SimBackend};
use dense::matrix::Matrix;
use dense::norms::{orthogonality_error, reconstruction_error};
use dense::MatPtr;
use gpu_sim::{DeviceSpec, Gpu};
use proptest::prelude::*;

const STRAT: ReductionStrategy = ReductionStrategy::RegisterSerialTransposed;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One tile: the WY (3-GEMM) apply equals the per-reflector larf sweep.
    #[test]
    fn wy_apply_matches_larf_sweep(
        rows in 4usize..96,
        width in 1usize..12,
        wc in 1usize..10,
        seed in 0u64..500,
        tr in 0u8..2,
    ) {
        prop_assume!(rows >= width);
        let transpose = tr == 1;
        let tile = Tile { start: 0, rows };
        let mut panel = dense::generate::uniform::<f64>(rows, width, seed);
        let mut v = Matrix::<f64>::zeros(rows, width);
        let wy = blockops::factor_tile(MatPtr::new(&mut panel), tile, 0, width, MatPtr::new(&mut v));
        let c0 = dense::generate::uniform::<f64>(rows, wc, seed ^ 0xabcd);
        let mut c_wy = c0.clone();
        let mut c_ref = c0.clone();
        blockops::apply_tile_wy(&wy, v.as_ref(), MatPtr::new(&mut c_wy), tile, 0, wc, transpose);
        blockops::apply_tile_reflectors(
            MatPtr::new_readonly(&panel),
            MatPtr::new(&mut c_ref),
            tile,
            0,
            width,
            &wy.tau,
            0,
            wc,
            transpose,
        );
        for i in 0..rows {
            for j in 0..wc {
                let (a, b) = (c_wy[(i, j)], c_ref[(i, j)]);
                prop_assert!(
                    (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                    "({i},{j}): wy {a} vs larf {b}"
                );
            }
        }
    }

    /// Tree level: the structured stacked-V apply (unit top block skipped,
    /// triangular lower blocks) equals the dense per-reflector sweep over
    /// the full stacked `V`.
    #[test]
    fn stacked_wy_apply_matches_larf_sweep(
        members in 2usize..5,
        w in 1usize..9,
        wc in 1usize..8,
        seed in 0u64..500,
        tr in 0u8..2,
    ) {
        let transpose = tr == 1;
        // Plant `members` upper-triangular blocks with boosted diagonals at
        // spaced rows, as the level-0 factorization would leave them.
        let gap = 2 * w + 3;
        let starts: Vec<usize> = (0..members).map(|t| t * gap).collect();
        let mut a = Matrix::<f64>::zeros(members * gap, w);
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for &r0 in &starts {
            for j in 0..w {
                for i in 0..=j {
                    a[(r0 + i, j)] = next() + if i == j { 4.0 } else { 0.0 };
                }
            }
        }
        let node = blockops::factor_tree_group(MatPtr::new(&mut a), &starts, 0, w);
        let c0 = dense::generate::uniform::<f64>(members * w, wc, seed ^ 0x55);
        let mut c_wy = c0.clone();
        let mut c_ref = c0.clone();
        blockops::apply_stacked_wy(&node, w, c_wy.as_mut(), transpose);
        dense::householder::apply_q2(
            node.u.as_ref(),
            &node.tau,
            transpose,
            c_ref.as_mut(),
        );
        for i in 0..members * w {
            for j in 0..wc {
                let (x, y) = (c_wy[(i, j)], c_ref[(i, j)]);
                prop_assert!(
                    (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                    "({i},{j}): stacked-wy {x} vs larf {y}"
                );
            }
        }
    }
}

/// End-to-end TSQR on (scaled-down) Table-I tall-skinny shapes: the WY
/// trailing updates must leave `||A - QR||` and `||Q^T Q - I||` at the
/// usual factorization accuracy.
#[test]
fn tsqr_reconstructs_table1_shapes() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    for &(m, w, h, seed) in &[
        (2048usize, 16usize, 128usize, 1u64),
        (1024, 8, 64, 2),
        (3000, 4, 96, 3),
    ] {
        let a = dense::generate::uniform::<f64>(m, w, seed);
        let cfg = CaqrOptions {
            bs: BlockSize { h, w },
            strategy: STRAT,
            tree: caqr::TreeShape::DeviceArity,
        }
        .drive_config();
        let f = drive(&SimBackend::sync(&gpu), a.clone(), &cfg, Mode::Sync).unwrap();
        let q = f.generate_q_on(&SimBackend::sync(&gpu), w).unwrap();
        let r = f.r();
        assert!(
            reconstruction_error(&a, &q, &r) < 1e-12,
            "{m}x{w}: ||A - QR|| too large"
        );
        assert!(orthogonality_error(&q) < 1e-12, "{m}x{w}: Q not orthogonal");
    }
}

/// End-to-end CAQR on a wider block: same reconstruction bound through the
/// panel-by-panel WY trailing updates.
#[test]
fn caqr_reconstructs_with_wy_updates() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f64>(768, 96, 4);
    let cfg = CaqrOptions {
        bs: BlockSize { h: 64, w: 16 },
        strategy: STRAT,
        tree: caqr::TreeShape::DeviceArity,
    }
    .drive_config();
    let f = drive(&SimBackend::sync(&gpu), a.clone(), &cfg, Mode::Sync).unwrap();
    let q = f.generate_q_on(&SimBackend::sync(&gpu), 96).unwrap();
    let r = f.r();
    assert!(reconstruction_error(&a, &q, &r) < 1e-12);
    assert!(orthogonality_error(&q) < 1e-12);
}
