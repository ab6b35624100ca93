//! Direct tests of the four GPU kernels in isolation (the drivers exercise
//! them end-to-end; these pin each kernel's contract individually).

use caqr::block::{tile_panel, TreeGroup};
use caqr::kernels::{ApplyQtHKernel, FactorKernel, FactorTreeKernel};
use caqr::microkernels::ReductionStrategy;
use caqr::tsqr::{TreeNode, WyTile};
use dense::matrix::Matrix;
use dense::MatPtr;
use gpu_sim::{DeviceSpec, Gpu};
use parking_lot::Mutex;

const STRAT: ReductionStrategy = ReductionStrategy::RegisterSerialTransposed;

#[test]
fn factor_kernel_factors_every_tile_like_geqr2() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let mut a = dense::generate::uniform::<f64>(200, 8, 1);
    let reference = a.clone();
    let tiles = tile_panel(0, 200, 64, 8);
    let wy: Vec<Mutex<Option<WyTile<f64>>>> = tiles.iter().map(|_| Mutex::new(None)).collect();
    {
        let k = FactorKernel {
            a: MatPtr::new(&mut a),
            tiles: &tiles,
            col0: 0,
            width: 8,
            strategy: STRAT,
            spec: gpu.spec(),
            wy: &wy,
        };
        gpu.launch(&k).unwrap();
    }
    // Each tile must hold exactly the geqr2 factorization of its rows, and
    // its output slot the matching compact-WY factors.
    for (ti, tile) in tiles.iter().enumerate() {
        let mut want = reference.extract(tile.start, 0, tile.rows, 8);
        let mut tau_want = vec![0.0; tile.rows.min(8)];
        dense::householder::geqr2(want.as_mut(), &mut tau_want);
        let got = a.extract(tile.start, 0, tile.rows, 8);
        assert_eq!(got, want, "tile {ti} factorization differs");
        let slot = wy[ti].lock();
        let w = slot.as_ref().expect("factor kernel must fill the WY slot");
        assert_eq!(w.tau, tau_want, "tile {ti} taus differ");
        assert_eq!(
            w.v,
            dense::blocked::extract_v(want.as_ref(), 8),
            "tile {ti} packed V differs"
        );
        assert_eq!(
            w.t,
            dense::blocked::larft(w.v.as_ref(), &w.tau),
            "tile {ti} T factor differs"
        );
    }
}

#[test]
fn factor_tree_kernel_eliminates_triangles() {
    // Two stacked upper-triangular Rs; the kernel must produce the QR of
    // the stack, write R to the leader and leave members' data untouched
    // except their triangles.
    let gpu = Gpu::new(DeviceSpec::c2050());
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

    let groups = [TreeGroup {
        members: vec![0, 32],
    }];
    let out: Vec<Mutex<Option<TreeNode<f64>>>> = vec![Mutex::new(None)];
    {
        let k = FactorTreeKernel {
            a: MatPtr::new(&mut a),
            groups: &groups,
            col0: 0,
            width: w,
            strategy: STRAT,
            spec: gpu.spec(),
            out: &out,
        };
        gpu.launch(&k).unwrap();
    }
    let node = out.into_iter().next().unwrap().into_inner().unwrap();
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
    // the kernel and via the dense reference.
    let panel0 = dense::generate::uniform::<f64>(32, 4, 2);
    let mut v = panel0.clone();
    let mut tau = vec![0.0; 4];
    dense::householder::geqr2(v.as_mut(), &mut tau);

    let target0 = dense::generate::uniform::<f64>(32, 6, 3);
    let mut target = target0.clone();
    let tiles = tile_panel(0, 32, 32, 4);
    let vexp = dense::blocked::extract_v(v.view(0, 0, 32, 4), 4);
    let wy = vec![WyTile {
        tau: tau.clone(),
        t: dense::blocked::larft(vexp.as_ref(), &tau),
        v: vexp,
        healthy: true,
    }];
    let cols = [(0usize, 6usize)];
    {
        let k = ApplyQtHKernel {
            c: MatPtr::new(&mut target),
            tiles: &tiles,
            width: 4,
            wy: &wy,
            col_blocks: &cols,
            transpose: true,
            strategy: STRAT,
            spec: gpu.spec(),
        };
        gpu.launch(&k).unwrap();
    }
    let mut want = target0.clone();
    dense::householder::apply_q2(&v, &tau, true, &mut want);
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
    // Factor via the tsqr driver to exercise multi-tile V.
    let pf = caqr::tsqr::factor_panel(
        &gpu,
        &mut v,
        0,
        0,
        8,
        caqr::BlockSize { h: 32, w: 8 },
        STRAT,
    )
    .unwrap();
    let f = caqr::Factorization {
        a: v,
        panels: vec![pf],
        launches: 0,
    };
    let sim = caqr::SimBackend::sync(&gpu);
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
    let mut a = dense::generate::uniform::<f32>(256, 8, 6);
    let tiles = tile_panel(0, 256, 64, 8);
    let wy: Vec<Mutex<Option<WyTile<f32>>>> = tiles.iter().map(|_| Mutex::new(None)).collect();
    {
        let k = FactorKernel {
            a: MatPtr::new(&mut a),
            tiles: &tiles,
            col0: 0,
            width: 8,
            strategy: STRAT,
            spec: gpu.spec(),
            wy: &wy,
        };
        let report = gpu.launch(&k).unwrap();
        assert_eq!(report.blocks, 4);
        assert!(report.total.flops > 0);
        assert!(
            report.total.gmem_bytes >= (2 * 256 * 8 * 4) as f64,
            "load + store traffic"
        );
        assert!(report.gflops > 0.0);
    }
}
