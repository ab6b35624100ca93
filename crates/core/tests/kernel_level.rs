//! Direct tests of the four GPU kernels in isolation (the drivers exercise
//! them end-to-end; these pin each kernel's contract individually): the
//! tile and tree-group tasks of `blockops`, the simulator's panel methods,
//! and the launch descriptions the simulator charges.

use caqr::block::tile_panel;
use caqr::blockops::{factor_tile, factor_tree_group};
use caqr::kernels::GridLaunch;
use caqr::microkernels::ReductionStrategy;
use caqr::{BlockSize, CaqrBackend, DriveConfig, SimBackend, TreeShape};
use dense::matrix::Matrix;
use dense::MatPtr;
use gpu_sim::{DeviceSpec, Exec, Gpu};

const STRAT: ReductionStrategy = ReductionStrategy::RegisterSerialTransposed;

/// The panel configuration of a simulated run with block size `bs`.
fn config(bs: BlockSize) -> DriveConfig {
    DriveConfig {
        bs,
        strategy: STRAT,
        tree: TreeShape::DeviceArity,
        check_finite: false,
        verify_checksums: false,
        health_context: "kernel test",
    }
}

#[test]
fn factor_kernel_factors_every_tile_like_geqr2() {
    let mut a = dense::generate::uniform::<f64>(200, 8, 1);
    let reference = a.clone();
    let tiles = tile_panel(0, 200, 64, 8);
    let mut vs: Vec<Matrix<f64>> = tiles
        .iter()
        .map(|t| Matrix::from_fn(t.rows, 8, |_, _| f64::NAN))
        .collect();
    let ap = MatPtr::new(&mut a);
    let wy: Vec<_> = (tiles.iter().zip(&mut vs))
        .map(|(&tile, v)| factor_tile(ap, tile, 0, 8, MatPtr::new(v)))
        .collect();
    // Each tile must hold exactly the geqr2 factorization of its rows, and
    // its task return the matching compact-WY factors.
    for (ti, tile) in tiles.iter().enumerate() {
        let mut want = reference.extract(tile.start, 0, tile.rows, 8);
        let mut tau_want = vec![0.0; tile.rows.min(8)];
        dense::householder::geqr2(want.as_mut(), &mut tau_want);
        let got = a.extract(tile.start, 0, tile.rows, 8);
        assert_eq!(got, want, "tile {ti} factorization differs");
        let w = &wy[ti];
        assert_eq!(w.tau, tau_want, "tile {ti} taus differ");
        assert_eq!(
            vs[ti],
            dense::blocked::extract_v(want.as_ref(), 8),
            "tile {ti} packed V differs"
        );
        assert_eq!(
            w.t,
            dense::blocked::larft(vs[ti].as_ref(), &w.tau),
            "tile {ti} T factor differs"
        );
    }
}

#[test]
fn factor_tree_kernel_eliminates_triangles() {
    // Two stacked upper-triangular Rs; the group task must produce the QR
    // of the stack, write R to the leader and leave members' data untouched
    // except their triangles.
    let w = 6;
    let mut a = Matrix::<f64>::zeros(64, w);
    // Plant two triangles at rows 0 and 32.
    for (t, r0) in [0usize, 32].into_iter().enumerate() {
        for j in 0..w {
            for i in 0..=j {
                a[(r0 + i, j)] =
                    ((t * 31 + i * 7 + j * 3) % 13) as f64 - 6.0 + if i == j { 9.0 } else { 0.0 };
            }
        }
    }
    // Reference: dense QR of the 2w x w stack.
    let mut stack = Matrix::<f64>::zeros(2 * w, w);
    for (t, r0) in [0usize, 32].into_iter().enumerate() {
        for j in 0..w {
            for i in 0..=j {
                stack[(t * w + i, j)] = a[(r0 + i, j)];
            }
        }
    }
    let mut stack_f = stack.clone();
    let mut tau_ref = vec![0.0; w];
    dense::householder::geqr2(stack_f.as_mut(), &mut tau_ref);

    let node = factor_tree_group(MatPtr::new(&mut a), &[0, 32], 0, w);
    assert_eq!(node.members, vec![0, 32]);
    assert_eq!(node.tau, tau_ref);
    assert_eq!(node.u, stack_f);
    // Leader triangle now holds the reduced R.
    for j in 0..w {
        for i in 0..=j {
            assert!(
                (a[(i, j)] - stack_f[(i, j)]).abs() < 1e-14,
                "R not written back at ({i},{j})"
            );
        }
    }
}

#[test]
fn apply_qt_h_kernel_matches_host_application() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    // Factor one 32x4 tile, then apply its Q^T to a 32x6 target both via
    // the simulator and via the dense reference.
    let panel0 = dense::generate::uniform::<f64>(32, 4, 2);
    let mut v = panel0.clone();
    let mut tau = vec![0.0; 4];
    dense::householder::geqr2(v.as_mut(), &mut tau);

    let target0 = dense::generate::uniform::<f64>(32, 6, 3);
    let mut target = target0.clone();
    // The simulator applies the packed factors of a one-tile panel it
    // factored (the same geqr2 reflectors as `v`/`tau`): one `apply_qt_h`
    // launch, as the panel has no tree level.
    let sim = SimBackend::sync(&gpu);
    let mut factored = panel0.clone();
    let cfg = config(BlockSize { h: 32, w: 4 });
    let pf = sim.factor_panel(0, &mut factored, 0, 0, 4, &cfg).unwrap();
    assert_eq!(pf.wy0[0].tau, tau);
    let cols = [(0usize, 6usize)];
    sim.apply_panel(0, MatPtr::new(&mut target), &pf, &cols, true)
        .unwrap();
    assert_eq!(gpu.ledger().per_op["apply_qt_h"].calls, 1);
    let mut want = target0.clone();
    dense::householder::apply_q2(v.as_ref(), &tau, true, want.as_mut());
    for i in 0..32 {
        for j in 0..6 {
            assert!((target[(i, j)] - want[(i, j)]).abs() < 1e-13, "({i},{j})");
        }
    }
}

#[test]
fn apply_qt_h_forward_backward_cancels() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let panel0 = dense::generate::uniform::<f64>(96, 8, 4);
    let mut v = panel0.clone();
    // Factor on the simulator to exercise multi-tile V.
    let sim = SimBackend::sync(&gpu);
    let cfg = config(BlockSize { h: 32, w: 8 });
    let pf = sim.factor_panel(0, &mut v, 0, 0, 8, &cfg).unwrap();
    let f = caqr::Factorization {
        a: v,
        panels: vec![pf],
        launches: 0,
    };
    let c0 = dense::generate::uniform::<f64>(96, 5, 5);
    let mut c = c0.clone();
    f.apply_on(&sim, &mut c, true).unwrap();
    // Something must have changed...
    let changed = c
        .as_slice()
        .iter()
        .zip(c0.as_slice())
        .any(|(a, b)| (a - b).abs() > 1e-9);
    assert!(changed);
    // ...and applying Q undoes it.
    f.apply_on(&sim, &mut c, false).unwrap();
    for (a, b) in c.as_slice().iter().zip(c0.as_slice()) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn kernels_count_positive_flops_and_traffic() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let tiles = tile_panel(0, 256, 64, 8);
    let launch = GridLaunch::factor(gpu.spec(), &tiles, 8, STRAT, 4);
    let report = gpu.charge_on(Exec::Sync, &launch).unwrap();
    assert_eq!(report.blocks, 4);
    assert!(report.total.flops > 0);
    assert!(
        report.total.gmem_bytes >= (2 * 256 * 8 * 4) as f64,
        "load + store traffic"
    );
    assert!(report.gflops > 0.0);
}
