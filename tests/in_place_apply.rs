//! The host applies `Q` and `Q^T` in place (DESIGN.md §5): each level-0
//! tile's `V` is packed once per apply and its three GEMMs read and write
//! the target tile where it lies in the matrix, and a tree node's block
//! GEMMs run on the member strips without a gather. This file holds that
//! path, end to end through the public API, to a copy-based reference
//! built from public pieces: every tile block is copied out, run through
//! `dense::blocked::larfb_left` and copied back, and every tree node's
//! strips are gathered into a stack, run through
//! `blockops::apply_stacked_wy` and scattered back, over the same
//! column-block grid. The two must agree bit for bit, on applies and on
//! the trailing updates of a factorization, over shapes that reach each
//! variant of the in-place path: several column blocks and a ragged last
//! one, a single column block (packed inside its task), tiles taller than
//! one `KC` sweep, a panel packed in several runs, in-place and gathered
//! tree nodes, f32 with checksums, a fused group and the simulator.

use caqr::blockops::apply_stacked_wy;
use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::tsqr::col_blocks;
use caqr::{factor_many, Factorization, PanelFactor, SimBackend, TreeShape};
use dense::blocked::larfb_left;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use gpu_sim::{DeviceSpec, Gpu};

fn opts(h: usize, w: usize, tree: TreeShape) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree,
        verify_checksums: false,
    }
}

/// Exact bit pattern of every element (`f32 -> f64` widening is lossless).
fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Apply one panel's `Q^T` (`transpose`) or `Q` to the column blocks
/// `cols` of `c` with copies: each tile block goes through `larfb_left`
/// and each tree node's gathered stack through `apply_stacked_wy`, in the
/// order of the host apply (tiles then tree levels bottom-up for `Q^T`,
/// the reverse for `Q`).
fn reference_panel_apply<T: Scalar>(
    pf: &PanelFactor<T>,
    c: &mut Matrix<T>,
    cols: &[(usize, usize)],
    transpose: bool,
) {
    let w = pf.width;
    let tiles = |c: &mut Matrix<T>| {
        for (ti, (tile, wy)) in pf.tiles.iter().zip(&pf.wy0).enumerate() {
            assert!(wy.healthy, "tile {ti} of panel {} broke down", pf.col0);
            for &(c0, wc) in cols {
                let mut block = c.extract(tile.start, c0, tile.rows, wc);
                larfb_left(pf.tile_v(ti), wy.t.as_ref(), transpose, block.as_mut());
                c.paste(tile.start, c0, &block);
            }
        }
    };
    let level = |c: &mut Matrix<T>, li: usize| {
        for node in &pf.levels[li] {
            assert!(
                node.healthy,
                "a level-{li} node of panel {} broke down",
                pf.col0
            );
            for &(c0, wc) in cols {
                let mut stack = Matrix::<T>::zeros(node.members.len() * w, wc);
                for (si, &r0) in node.members.iter().enumerate() {
                    stack.paste(si * w, 0, &c.extract(r0, c0, w, wc));
                }
                apply_stacked_wy(node, w, stack.as_mut(), transpose);
                for (si, &r0) in node.members.iter().enumerate() {
                    c.paste(r0, c0, &stack.extract(si * w, 0, w, wc));
                }
            }
        }
    };
    if transpose {
        tiles(c);
        (0..pf.levels.len()).for_each(|li| level(c, li));
    } else {
        (0..pf.levels.len()).rev().for_each(|li| level(c, li));
        tiles(c);
    }
}

/// [`Factorization::apply`]'s result computed with copies: every panel
/// over the `w`-wide column grid of the whole target.
fn reference_apply<T: Scalar>(f: &Factorization<T>, c: &Matrix<T>, transpose: bool) -> Matrix<T> {
    let mut c = c.clone();
    let cols = col_blocks(0, c.cols(), f.panels[0].bs.w);
    if transpose {
        f.panels
            .iter()
            .for_each(|pf| reference_panel_apply(pf, &mut c, &cols, transpose));
    } else {
        f.panels
            .iter()
            .rev()
            .for_each(|pf| reference_panel_apply(pf, &mut c, &cols, transpose));
    }
    c
}

/// Assert that applying `Q^T` and `Q` of `f` to `b` in place on the host
/// gives the copy reference's bits.
fn assert_applies_match<T: Scalar>(f: &Factorization<T>, b: &Matrix<T>, what: &str) {
    for transpose in [true, false] {
        let mut got = b.clone();
        f.apply(&mut got, transpose).unwrap();
        let want = reference_apply(f, b, transpose);
        assert!(
            bits(&got) == bits(&want),
            "{what}: in-place apply (transpose = {transpose}) differs from the copy reference"
        );
    }
}

/// Assert that every trailing update of the factorization `f` of `a` wrote
/// the bits the copy reference writes. Panel `p`'s update is replayed on a
/// copy of `a` over the trailing column grid a synchronous run uses (whole
/// `w`-wide blocks when `w` divides `n`), with `f`'s own panel factors; the
/// `R` rows of each panel right of its diagonal block are final after its
/// update, so they must equal `f.a` there.
fn assert_trailing_updates_match<T: Scalar>(f: &Factorization<T>, a: &Matrix<T>, what: &str) {
    let n = a.cols();
    let mut m = a.clone();
    for pf in &f.panels {
        let (c0, w) = (pf.col0, pf.width);
        assert_eq!(n % w, 0, "{what}: the replay assumes whole column blocks");
        let cols = col_blocks(c0 + w, n, w);
        if cols.is_empty() {
            continue;
        }
        reference_panel_apply(pf, &mut m, &cols, true);
        let got = f.a.extract(c0, c0 + w, w, n - c0 - w);
        let want = m.extract(c0, c0 + w, w, n - c0 - w);
        assert!(
            bits(&got) == bits(&want),
            "{what}: the trailing update of panel {c0} differs from the copy reference"
        );
    }
}

#[test]
fn apply_qt_and_q_match_copy_reference_on_multi_block_targets() {
    // Four 160-row tiles, one 4-member tree node; the target's column
    // blocks are 32, 32 and a ragged 6, which runs below the packed path.
    let a = dense::generate::uniform::<f64>(640, 96, 11);
    let f = caqr_cpu(a, opts(160, 32, TreeShape::DeviceArity)).unwrap();
    let b = dense::generate::uniform::<f64>(640, 70, 12);
    assert_applies_match(&f, &b, "640x96 h160 w32, 70-column target");
}

#[test]
fn single_column_block_targets_match_copy_reference() {
    // One column block: each task packs its own tile instead of sharing a
    // pack region.
    let a = dense::generate::uniform::<f64>(640, 96, 13);
    let f = caqr_cpu(a, opts(160, 32, TreeShape::DeviceArity)).unwrap();
    for nc in [32, 20, 1] {
        let b = dense::generate::uniform::<f64>(640, nc, 14 + nc as u64);
        assert_applies_match(&f, &b, &format!("640x96 h160 w32, {nc}-column target"));
    }
}

#[test]
fn tiles_taller_than_one_kc_sweep_match_copy_reference() {
    // 600-row tiles: `V^T C` runs its inner dimension in more than one
    // 256-deep sweep of the packed kernel.
    let a = dense::generate::uniform::<f64>(1800, 64, 21);
    let f = caqr_cpu(a, opts(600, 32, TreeShape::DeviceArity)).unwrap();
    assert!(f.panels[0].tiles.iter().all(|t| t.rows > 256));
    let b = dense::generate::uniform::<f64>(1800, 64, 22);
    assert_applies_match(&f, &b, "1800x64 h600 w32");
}

#[test]
fn tall_panel_packed_in_several_runs_matches_copy_reference() {
    // 20000 x 32: the panel's `V^T` and `V` packs hold more than 2^20
    // elements together, so the apply packs and applies in tile runs.
    let a = dense::generate::uniform::<f64>(20_000, 32, 31);
    let f = caqr_cpu(a, opts(500, 32, TreeShape::DeviceArity)).unwrap();
    let b = dense::generate::uniform::<f64>(20_000, 64, 32);
    assert_applies_match(&f, &b, "20000x32 h500 w32");
}

#[test]
fn binomial_and_fixed_arity_trees_match_gathered_reference() {
    // w = 16 nodes run their block GEMMs in place; w = 8 nodes fall below
    // the packed path and gather.
    for (tree, w) in [
        (TreeShape::Binomial, 16),
        (TreeShape::Arity(3), 16),
        (TreeShape::Binomial, 8),
    ] {
        let a = dense::generate::uniform::<f64>(520, 48, 41);
        let f = caqr_cpu(a, opts(64, w, tree)).unwrap();
        assert!(f.panels[0].levels.len() > 1, "{tree:?} w{w} has one level");
        let b = dense::generate::uniform::<f64>(520, 3 * w + 5, 42);
        assert_applies_match(&f, &b, &format!("520x48 h64 w{w} {tree:?}"));
    }
}

#[test]
fn f32_applies_match_copy_reference() {
    let a = dense::generate::uniform::<f32>(900, 64, 51);
    let f = caqr_cpu(a, opts(128, 32, TreeShape::DeviceArity)).unwrap();
    let b = dense::generate::uniform::<f32>(900, 96, 52);
    assert_applies_match(&f, &b, "f32 900x64 h128 w32");
}

#[test]
fn simulator_applies_match_copy_reference() {
    let a = dense::generate::uniform::<f64>(512, 64, 61);
    let f = caqr_cpu(a, opts(128, 32, TreeShape::DeviceArity)).unwrap();
    let b = dense::generate::uniform::<f64>(512, 80, 62);
    let gpu = Gpu::new(DeviceSpec::c2050());
    for transpose in [true, false] {
        let mut got = b.clone();
        f.apply_on(&SimBackend::sync(&gpu), &mut got, transpose)
            .unwrap();
        let want = reference_apply(&f, &b, transpose);
        assert!(
            bits(&got) == bits(&want),
            "simulator apply (transpose = {transpose}) differs from the copy reference"
        );
    }
}

#[test]
fn factorization_trailing_updates_match_copy_reference() {
    let a = dense::generate::uniform::<f64>(512, 256, 71);
    let f = caqr_cpu(a.clone(), opts(128, 32, TreeShape::DeviceArity)).unwrap();
    assert_eq!(f.panels.len(), 8);
    assert_trailing_updates_match(&f, &a, "512x256 h128 w32");
}

#[test]
fn checksummed_f32_trailing_updates_match_copy_reference() {
    let a = dense::generate::uniform::<f32>(384, 128, 81);
    let o = CpuCaqrOptions {
        verify_checksums: true,
        ..opts(128, 32, TreeShape::DeviceArity)
    };
    let f = caqr_cpu(a.clone(), o).unwrap();
    assert_trailing_updates_match(&f, &a, "f32 384x128 h128 w32 checksummed");
}

#[test]
fn fused_group_trailing_updates_match_copy_reference() {
    // Three same-shape jobs fuse into one group, whose apply packs every
    // member's tiles in one region; each member must match both its solo
    // run and the copy reference.
    let o = opts(128, 32, TreeShape::DeviceArity);
    let inputs: Vec<Matrix<f64>> = (0..3)
        .map(|s| dense::generate::uniform::<f64>(384, 96, 90 + s))
        .collect();
    let jobs = inputs.iter().map(|a| (a.clone(), o)).collect();
    let (results, stats) = factor_many(jobs, &[], false);
    assert!(stats.fused_groups >= 1, "the three jobs did not fuse");
    for (a, f) in inputs.iter().zip(results) {
        let f = f.unwrap();
        let solo = caqr_cpu(a.clone(), o).unwrap();
        assert!(
            bits(&f.a) == bits(&solo.a),
            "fused member differs from its solo run"
        );
        assert_trailing_updates_match(&f, a, "fused 384x96 h128 w32");
    }
}

#[test]
fn least_squares_through_in_place_apply_matches_copy_reference() {
    // `least_squares_on` is one `Q^T` sweep over all right-hand sides and a
    // triangular solve per column: its leading rows are the reference's.
    let a = dense::generate::uniform::<f64>(700, 64, 101);
    let f = caqr_cpu(a, opts(128, 32, TreeShape::DeviceArity)).unwrap();
    let b = dense::generate::uniform::<f64>(700, 40, 102);
    let x = f.least_squares_on(&caqr::CpuBackend, &b).unwrap();
    let qtb = reference_apply(&f, &b, true);
    for j in 0..b.cols() {
        let mut col = qtb.col(j)[..64].to_vec();
        dense::blas2::trsv_upper(f.a.view(0, 0, 64, 64), &mut col);
        let got: Vec<u64> = x.col(j).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
        assert!(
            got == want,
            "least-squares column {j} differs from the copy reference"
        );
    }
}
