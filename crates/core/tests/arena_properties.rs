//! Property tests of the workspace-arena hot paths: the arena-backed factor
//! kernels must be indistinguishable from the fresh-allocation reference
//! implementations on random shapes, and stale (even deliberately poisoned)
//! pool contents must never leak into results — the two guarantees the
//! allocation-free fast path rests on.

use caqr::block::Tile;
use caqr::blockops;
use dense::arena;
use dense::matrix::Matrix;
use dense::MatPtr;
use proptest::prelude::*;

/// Bit-level equality helper with a readable failure.
fn assert_bits_eq(name: &str, got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert!(
        got.len() == want.len(),
        "{} length: {} != {}",
        name,
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{}[{}]: {:e} ({:#x}) != {:e} ({:#x})",
            name,
            i,
            g,
            g.to_bits(),
            w,
            w.to_bits()
        );
    }
    Ok(())
}

/// Value equality (zero signs may differ where the structured tree path
/// skips exact `±0.0` products).
fn assert_values_eq(name: &str, got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert!(
        got.len() == want.len(),
        "{} length: {} != {}",
        name,
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g == w || (g.is_nan() && w.is_nan()),
            "{}[{}]: {:e} != {:e}",
            name,
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The arena-backed pre-transposed `factor_tile` is bit-identical to the
    /// fresh-allocation column-major reference: same factored tile, same
    /// `tau`, `V` and `T` — even when the pools it draws from were poisoned
    /// with NaN beforehand (stale contents cannot leak). These tiles fit
    /// `factor_l1_bytes::<f64>()`, so they take the unblocked sweep.
    #[test]
    fn arena_factor_tile_is_bit_identical_to_fresh_allocation(
        rows in 2usize..96,
        width in 1usize..12,
        seed in 0u64..500,
        poison in 0u8..2,
    ) {
        prop_assume!(rows >= width);
        if poison == 1 {
            arena::poison_pools::<f64>(f64::NAN);
        }
        let tile = Tile { start: 0, rows };
        let a0 = dense::generate::uniform::<f64>(rows, width, seed);

        let mut a_fast = a0.clone();
        // A NaN-filled V block, like a poisoned slab: every element the
        // kernel leaves unwritten shows up in the comparison.
        let mut v_fast = Matrix::from_fn(rows, width, |_, _| f64::NAN);
        let wy_fast = blockops::factor_tile(
            MatPtr::new(&mut a_fast),
            tile,
            0,
            width,
            MatPtr::new(&mut v_fast),
        );
        let mut a_ref = a0.clone();
        let (wy_ref, v_ref) = blockops::factor_tile_ref(MatPtr::new(&mut a_ref), tile, 0, width);

        assert_bits_eq("tile", a_fast.as_slice(), a_ref.as_slice())?;
        assert_bits_eq("tau", &wy_fast.tau, &wy_ref.tau)?;
        assert_bits_eq("v", v_fast.as_slice(), v_ref.as_slice())?;
        assert_bits_eq("t", wy_fast.t.as_slice(), wy_ref.t.as_slice())?;
        prop_assert_eq!(wy_fast.healthy, wy_ref.healthy);
    }

    /// The arena-backed structured `factor_tree_group` agrees with the
    /// fresh-allocation dense reference on every value (the structured path
    /// skips exact-zero products, so only zero signs may differ), again
    /// regardless of poisoned pools.
    #[test]
    fn arena_factor_tree_group_matches_fresh_allocation(
        arity in 2usize..6,
        width in 1usize..10,
        seed in 0u64..500,
        poison in 0u8..2,
    ) {
        if poison == 1 {
            arena::poison_pools::<f64>(f64::NAN);
        }
        let rows = arity * width;
        let members: Vec<usize> = (0..arity).map(|t| t * width).collect();
        // Upper-triangularize each member's strip, as after level 0.
        let mut a0 = dense::generate::uniform::<f64>(rows, width, seed);
        for &r0 in &members {
            for i in 0..width {
                for j in 0..i.min(width) {
                    a0[(r0 + i, j)] = 0.0;
                }
            }
        }

        let mut a_fast = a0.clone();
        let node_fast =
            blockops::factor_tree_group(MatPtr::new(&mut a_fast), &members, 0, width);
        let mut a_ref = a0.clone();
        let node_ref =
            blockops::factor_tree_group_ref(MatPtr::new(&mut a_ref), &members, 0, width);

        assert_values_eq("leader R", a_fast.as_slice(), a_ref.as_slice())?;
        assert_values_eq("tau", &node_fast.tau, &node_ref.tau)?;
        assert_values_eq("u", node_fast.u.as_slice(), node_ref.u.as_slice())?;
        assert_values_eq("tmat", node_fast.tmat.as_slice(), node_ref.tmat.as_slice())?;
        prop_assert_eq!(node_fast.healthy, node_ref.healthy);
    }

    /// Re-running the same factorization after poisoning every pool with NaN
    /// reproduces the clean run bit-for-bit: the arena contract (`take_dirty`
    /// users overwrite every element they read) holds on the whole caqr_cpu
    /// pipeline, not just the leaf kernels. The comparison covers every
    /// panel factor as well as the factored matrix, since the level-0 `V`
    /// slabs themselves come from the (poisoned) pool.
    #[test]
    fn poisoned_pools_cannot_perturb_caqr_cpu(
        m in 16usize..200,
        n in 1usize..8,
        seed in 0u64..500,
    ) {
        prop_assume!(m >= 2 * n);
        let a = dense::generate::uniform::<f64>(m, n, seed);
        let opts = caqr::CpuCaqrOptions {
            tile_rows: (m / 2).max(2 * n),
            panel_width: n,
            tree: caqr::TreeShape::DeviceArity,
                    verify_checksums: false,
        };
        let clean = caqr_cpu_bits(&a, opts);
        arena::poison_pools::<f64>(f64::NAN);
        let poisoned = caqr_cpu_bits(&a, opts);
        assert_bits_eq("factored matrix and panel factors", &clean, &poisoned)?;
    }
}

/// The factored matrix followed by every panel's level-0 `tau`, `T` and
/// `V` (through [`caqr::PanelFactor::tile_v`]) and every tree node.
fn caqr_cpu_bits(a: &Matrix<f64>, opts: caqr::CpuCaqrOptions) -> Vec<f64> {
    let f = caqr::caqr_cpu(a.clone(), opts).expect("factorization");
    let mut out = f.a.as_slice().to_vec();
    for pf in &f.panels {
        for (ti, wy) in pf.wy0.iter().enumerate() {
            out.extend(&wy.tau);
            out.extend(wy.t.as_slice());
            let v = pf.tile_v(ti);
            for j in 0..v.cols() {
                out.extend(v.col(j));
            }
        }
        for node in pf.levels.iter().flatten() {
            out.extend(node.u.as_slice());
            out.extend(&node.tau);
            out.extend(node.tmat.as_slice());
        }
    }
    out
}

/// Steady state really is allocation-free: after a warm-up run, repeating
/// the same factor shape produces pool hits only. Counted on this thread
/// (`thread_stats`), so concurrently running tests cannot move the delta.
#[test]
fn steady_state_factor_serves_from_pool() {
    let rows = 192;
    let width = 12;
    let tile = Tile { start: 0, rows };
    let mut a = dense::generate::uniform::<f64>(rows, width, 7);
    let mut v = Matrix::<f64>::zeros(rows, width);
    let mut factor =
        || blockops::factor_tile(MatPtr::new(&mut a), tile, 0, width, MatPtr::new(&mut v));
    factor(); // warm
    let before = arena::thread_stats::<f64>();
    for _ in 0..8 {
        factor();
    }
    let after = arena::thread_stats::<f64>();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert!(hits > 0, "no pooled requests recorded: {after:?}");
    assert_eq!(misses, 0, "steady state allocated: {after:?}");
}

/// A dropped factorization hands its level-0 `V` slab back to the calling
/// thread's cache, so the next run of the same shape takes it warm: the
/// second multi-tile `caqr_cpu` gets the very same slab and, counted on
/// this thread, allocates nothing at all.
#[test]
fn steady_state_caqr_cpu_reuses_the_v_slab() {
    let (m, n) = (8192, 32);
    let a = dense::generate::uniform::<f64>(m, n, 9);
    let opts = caqr::CpuCaqrOptions {
        tile_rows: 512,
        panel_width: n,
        tree: caqr::TreeShape::DeviceArity,
        verify_checksums: false,
    };
    let slab_of = |f: &caqr::Factorization<f64>| f.panels[0].tile_v(0).col(0).as_ptr();
    // This thread may claim more factor tasks in the second run than in
    // the first; pooled tile scratch (packing, Gram, pivot columns, lanes,
    // and the blocked factor's one take for its two strips, pass
    // accumulators and block Gram) keeps those takes hits too.
    let nb = dense::householder::FACTOR_BLOCK;
    for len in [512 * n, n * n, 512, n, 2 * 512 * nb + nb * n + nb * nb] {
        arena::prewarm::<f64>(len, 8);
    }
    let first = caqr::caqr_cpu(a.clone(), opts).expect("factorization");
    assert_eq!(first.panels[0].tiles.len(), 16);
    let first_slab = slab_of(&first);
    drop(first);
    let before = arena::thread_stats::<f64>();
    let second = caqr::caqr_cpu(a.clone(), opts).expect("factorization");
    let after = arena::thread_stats::<f64>();
    assert_eq!(slab_of(&second), first_slab, "the slab was not recycled");
    assert_eq!(
        after.misses, before.misses,
        "steady state allocated: {after:?}"
    );
    assert!(
        after.hits > before.hits,
        "no pooled requests recorded: {after:?}"
    );
}

/// The multi-panel sibling of the slab test: 512x128 in 128x32 tiles has
/// three panels with trailing columns, so every panel also packs its
/// tiles' `V` for the in-place apply and runs the tile and tree applies.
/// After one warm-up run, a second run of the same shape allocates
/// nothing on this thread: the per-apply pack buffer comes back to this
/// thread's cache when each apply returns, and the tasks' `W`, `op(T) W`,
/// packs, packed tree blocks and GEMM scratch come from stocked size
/// classes.
#[test]
fn steady_state_multi_panel_caqr_cpu_allocates_nothing() {
    let (m, n, h, w) = (512, 128, 128, 32);
    let a = dense::generate::uniform::<f64>(m, n, 12);
    let opts = caqr::CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree: caqr::TreeShape::DeviceArity,
        verify_checksums: false,
    };
    // As in the slab test: this thread may claim tasks in the second run
    // that it never ran in the first, so every size class a task draws is
    // stocked beyond what one run leaves here: the tile factor's scratch,
    // its `T` assembly (`2 * w`), a two-member tree stack (`2 * w * w`),
    // the apply tasks' `w x w` scratch, and the `V` pack a task takes for
    // a single-column-block apply (`2 * h * w`, the last panel with
    // trailing columns).
    let nb = dense::householder::FACTOR_BLOCK;
    let block_scratch = 2 * h * nb + nb * w + nb * nb;
    for len in [
        h * w,
        w * w,
        2 * w * w,
        h,
        w,
        2 * w,
        2 * h * w,
        block_scratch,
    ] {
        arena::prewarm::<f64>(len, 8);
    }
    let first = caqr::caqr_cpu(a.clone(), opts).expect("factorization");
    assert_eq!(first.panels.len(), 4);
    drop(first);
    let before = arena::thread_stats::<f64>();
    let second = caqr::caqr_cpu(a, opts).expect("factorization");
    let after = arena::thread_stats::<f64>();
    assert_eq!(second.panels.len(), 4);
    assert_eq!(
        after.misses, before.misses,
        "steady state allocated: {after:?}"
    );
    assert!(
        after.hits > before.hits,
        "no pooled requests recorded: {after:?}"
    );
}
