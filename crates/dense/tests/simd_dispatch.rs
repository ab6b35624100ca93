//! SIMD-dispatch conformance: every backend reachable on this CPU is
//! checked against the scalar oracle kernels.
//!
//! The gemm microkernel reassociates the k-loop per vector lane, so its
//! comparisons are ulp-bounded; the factor sweep and the axpy-style column
//! kernels vectorize *independent* fused chains and are required to be
//! **bit-identical** on every backend (the guarantee the bitwise CPU/GPU
//! cross-checks in the core crate rely on).
//!
//! Backend forcing goes through `dense::simd::set_backend_override`, which
//! is process-global — every test that touches it serializes on [`LOCK`].

use dense::blas3::{gemm, Trans};
use dense::matrix::Matrix;
use dense::simd::{active, set_backend_override};
use dense::Backend;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global backend override.
static LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the dispatcher pinned to `b`, restoring auto-detection
/// afterwards (also on panic, so one failed case cannot poison the rest of
/// the suite into running on the wrong backend).
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_backend_override(None);
        }
    }
    let _restore = Restore;
    set_backend_override(Some(b));
    f()
}

fn gemm_once<T: dense::scalar::Scalar>(
    b: Backend,
    a: &Matrix<T>,
    bm: &Matrix<T>,
    c0: &Matrix<T>,
    alpha: T,
    beta: T,
) -> Matrix<T> {
    with_backend(b, || {
        let mut c = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            alpha,
            a.as_ref(),
            bm.as_ref(),
            beta,
            c.as_mut(),
        );
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reachable backend's packed gemm agrees with the scalar oracle
    /// to a k-scaled ulp bound, across all MR/NR remainder classes: `m`
    /// spans 1..=72 (every ragged micro-tile height up to the widest MR of
    /// 32, plus full tiles), `n` spans 1..=19 (every width class up to the
    /// widest NR of 8), and `k` crosses the KC panel edge via `k_sel`.
    #[test]
    fn gemm_matches_scalar_oracle_on_every_backend(
        m in 1usize..=72,
        n in 1usize..=19,
        k_sel in 0usize..6,
        seed in 0u64..1000,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let k = [1usize, 2, 3, 7, 16, 37][k_sel];
        let a = dense::generate::uniform::<f64>(m, k, seed);
        let b = dense::generate::uniform::<f64>(k, n, seed ^ 1);
        let c0 = dense::generate::uniform::<f64>(m, n, seed ^ 2);
        let oracle = gemm_once(Backend::Scalar, &a, &b, &c0, alpha, beta);
        for backend in Backend::available() {
            let got = gemm_once(backend, &a, &b, &c0, alpha, beta);
            for j in 0..n {
                for i in 0..m {
                    let (x, y) = (oracle[(i, j)], got[(i, j)]);
                    // Reassociated k-term dot: |err| <= O(k) ulps of the
                    // accumulated magnitude.
                    let scale = 1.0 + x.abs() + alpha.abs() * (k as f64) * 2.0 * 2.0;
                    prop_assert!(
                        (x - y).abs() <= 64.0 * (k as f64) * f64::EPSILON * scale,
                        "{backend:?} ({m}x{n}x{k}) at ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    /// f32 flavour of the same conformance sweep — the wider-lane kernels
    /// (8..32 f32 lanes) exercise remainder classes f64 cannot reach.
    #[test]
    fn gemm_f32_matches_scalar_oracle_on_every_backend(
        m in 1usize..=72,
        n in 1usize..=19,
        k_sel in 0usize..5,
        seed in 0u64..1000,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let k = [1usize, 2, 5, 16, 33][k_sel];
        let a = dense::generate::uniform::<f32>(m, k, seed);
        let b = dense::generate::uniform::<f32>(k, n, seed ^ 1);
        let c0 = Matrix::<f32>::zeros(m, n);
        let oracle = gemm_once(Backend::Scalar, &a, &b, &c0, 1.0f32, 0.0f32);
        for backend in Backend::available() {
            let got = gemm_once(backend, &a, &b, &c0, 1.0f32, 0.0f32);
            for j in 0..n {
                for i in 0..m {
                    let (x, y) = (oracle[(i, j)], got[(i, j)]);
                    let scale = 1.0 + (k as f32) * 2.0 * 2.0;
                    prop_assert!(
                        (x - y).abs() <= 32.0 * (k as f32) * f32::EPSILON * scale,
                        "{backend:?} ({m}x{n}x{k}) at ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    /// The fused factor sweep (`geqr2_gram_transposed`) is **bit-identical**
    /// to the scalar oracle on every backend: panel `at`, reflector scalars
    /// `tau`, and the fused `V^T V` Gram accumulation all compare by bits.
    /// Widths cover full vectors (8, 16), the wide+narrow split (AVX-512
    /// f64 at width 8 runs the narrow 4-lane path), and odd remainders;
    /// `tri_block` exercises the stacked-triangles row skipping.
    #[test]
    fn factor_sweep_is_bit_identical_on_every_backend(
        rows in 2usize..96,
        w_sel in 0usize..5,
        tri_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let width = [4usize, 8, 13, 16, 32][w_sel];
        let k = rows.min(width);
        let tri_block = [0usize, width, 2 * width][tri_sel];
        let a0 = dense::generate::uniform::<f64>(rows, width, seed);
        // Row-major (transposed) copy, with the stacked-triangles zero
        // structure when tri_block > 0 (the kernels may skip those slots).
        let mut at0 = vec![0.0f64; rows * width];
        for r in 0..rows {
            let lo = if tri_block > 0 { (r % tri_block).min(width) } else { 0 };
            for j in lo..width {
                at0[r * width + j] = a0[(r, j)];
            }
        }
        let run = |backend: Backend| {
            with_backend(backend, || {
                let mut at = at0.clone();
                let mut tau = vec![0.0f64; k];
                let mut gram = vec![0.0f64; k * k];
                dense::householder::geqr2_gram_transposed(
                    &mut at, rows, width, tri_block, &mut tau, &mut gram,
                );
                (at, tau, gram)
            })
        };
        let (at_s, tau_s, gram_s) = run(Backend::Scalar);
        for backend in Backend::available() {
            let (at_b, tau_b, gram_b) = run(backend);
            for (i, (x, y)) in at_s.iter().zip(&at_b).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "{backend:?} rows={rows} width={width} tri={tri_block}: at[{i}] {x:e} vs {y:e}"
                );
            }
            for (i, (x, y)) in tau_s.iter().zip(&tau_b).enumerate() {
                prop_assert!(x.to_bits() == y.to_bits(), "{backend:?}: tau[{i}] {x:e} vs {y:e}");
            }
            for (i, (x, y)) in gram_s.iter().zip(&gram_b).enumerate() {
                prop_assert!(x.to_bits() == y.to_bits(), "{backend:?}: gram[{i}] {x:e} vs {y:e}");
            }
        }
    }
}

/// The blocked factor (`geqrf_gram_transposed` on a panel larger than its
/// type's `factor_l1_bytes` budget) is **bit-identical** to the scalar
/// oracle on every backend: factored panel, `tau` and Gram. It runs the
/// two-chain strip dot and both blocked passes. Widths 16 and 32 are whole
/// blocks, 20 leaves a ragged 4-column last block and ragged register
/// blocks; rows sit just above the budget and far above it.
fn assert_blocked_factor_bit_identical<T: dense::scalar::Scalar>() {
    let size = std::mem::size_of::<T>();
    for width in [16usize, 20, 32] {
        let min_rows = dense::householder::factor_l1_bytes::<T>() / (width * size) + 1;
        for rows in [min_rows, 4 * min_rows + 3] {
            let a0 = dense::generate::uniform::<T>(rows, width, (rows + width) as u64);
            let mut at0 = vec![T::ZERO; rows * width];
            for r in 0..rows {
                for j in 0..width {
                    at0[r * width + j] = a0[(r, j)];
                }
            }
            let run = |backend: Backend| {
                with_backend(backend, || {
                    let mut at = at0.clone();
                    let mut tau = vec![T::ZERO; width];
                    let mut gram = vec![T::ZERO; width * width];
                    dense::householder::geqrf_gram_transposed(
                        &mut at, rows, width, &mut tau, &mut gram,
                    );
                    (at, tau, gram)
                })
            };
            let oracle = run(Backend::Scalar);
            // The Gram is read above the diagonal only.
            let upper = |g: &[T]| -> Vec<u64> {
                (0..width * width)
                    .filter(|i| i / width < i % width)
                    .map(|i| g[i].to_f64().to_bits())
                    .collect()
            };
            let bits = |x: &[T]| -> Vec<u64> { x.iter().map(|v| v.to_f64().to_bits()).collect() };
            for backend in Backend::available() {
                let got = run(backend);
                let ctx = format!("{backend:?} {rows}x{width} f{}", 8 * size);
                assert_eq!(bits(&got.0), bits(&oracle.0), "{ctx}: at");
                assert_eq!(bits(&got.1), bits(&oracle.1), "{ctx}: tau");
                assert_eq!(upper(&got.2), upper(&oracle.2), "{ctx}: gram");
            }
        }
    }
}

#[test]
fn blocked_factor_is_bit_identical_on_every_backend() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_blocked_factor_bit_identical::<f64>();
    assert_blocked_factor_bit_identical::<f32>();
}

/// Zero-sized edges: `k == 0` must reduce gemm to `C = beta C` on every
/// backend (bit-identically — no dot is ever formed), and empty `C` must
/// be a no-op instead of a panic.
#[test]
fn gemm_zero_extent_edges_on_every_backend() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let c0 = dense::generate::uniform::<f64>(9, 5, 11);
    for backend in Backend::available() {
        with_backend(backend, || {
            // k == 0: pure beta scaling.
            let a = Matrix::<f64>::zeros(9, 0);
            let b = Matrix::<f64>::zeros(0, 5);
            let mut c = c0.clone();
            gemm(
                Trans::No,
                Trans::No,
                2.0,
                a.as_ref(),
                b.as_ref(),
                -0.5,
                c.as_mut(),
            );
            for j in 0..5 {
                for i in 0..9 {
                    assert_eq!(
                        c[(i, j)].to_bits(),
                        (-0.5 * c0[(i, j)]).to_bits(),
                        "{backend:?} k=0 at ({i},{j})"
                    );
                }
            }
            // m == 0 and n == 0: nothing to write, must not panic.
            let a = Matrix::<f64>::zeros(0, 4);
            let b = Matrix::<f64>::zeros(4, 5);
            let mut c = Matrix::<f64>::zeros(0, 5);
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
            let a = Matrix::<f64>::zeros(9, 4);
            let b = Matrix::<f64>::zeros(4, 0);
            let mut c = Matrix::<f64>::zeros(9, 0);
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
        });
    }
}

/// Magnitude extremes: entries at the edge of f64's range (±1e±300) must
/// come through every backend's microkernel with the same finiteness and
/// tight relative agreement — no backend may overflow, flush, or reorder
/// its way to a different magnitude class than the scalar oracle.
#[test]
fn gemm_extreme_magnitudes_agree_across_backends() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for &scale in &[1e300f64, 1e-300f64] {
        let (m, n, k) = (33, 9, 13);
        let mut a = dense::generate::uniform::<f64>(m, k, 21);
        // Scale A only: products sit at ~scale, sums stay representable.
        for v in a.as_mut_slice() {
            *v *= scale;
        }
        let b = dense::generate::uniform::<f64>(k, n, 22);
        let c0 = Matrix::<f64>::zeros(m, n);
        let oracle = gemm_once(Backend::Scalar, &a, &b, &c0, 1.0, 0.0);
        for backend in Backend::available() {
            let got = gemm_once(backend, &a, &b, &c0, 1.0, 0.0);
            for j in 0..n {
                for i in 0..m {
                    let (x, y) = (oracle[(i, j)], got[(i, j)]);
                    assert!(
                        x.is_finite() && y.is_finite(),
                        "{backend:?} scale {scale:e}"
                    );
                    assert!(
                        (x - y).abs() <= 1e-12 * scale * (k as f64),
                        "{backend:?} scale {scale:e} at ({i},{j}): {x:e} vs {y:e}"
                    );
                }
            }
        }
    }
}

/// The `CAQR_SIMD=scalar` leg of CI runs this binary with the env knob set
/// before the first dispatch: the auto-selected backend must then *be* the
/// scalar oracle, and routing through the dispatcher must be bit-identical
/// to calling with an explicit scalar override — the plumbing adds nothing.
/// Without the env knob the test only checks that dispatch is deterministic
/// (two runs on the auto-selected backend agree by bits).
#[test]
fn env_forced_scalar_pins_the_dispatcher() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let forced = std::env::var("CAQR_SIMD").as_deref() == Ok("scalar");
    if forced {
        assert_eq!(
            active(),
            Backend::Scalar,
            "CAQR_SIMD=scalar must pin the auto-selected backend"
        );
    }
    let a = dense::generate::uniform::<f64>(37, 11, 31);
    let b = dense::generate::uniform::<f64>(11, 7, 32);
    let c0 = dense::generate::uniform::<f64>(37, 7, 33);
    // Auto-dispatched run (no override).
    let auto1 = {
        let mut c = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            1.5,
            a.as_ref(),
            b.as_ref(),
            0.5,
            c.as_mut(),
        );
        c
    };
    let auto2 = {
        let mut c = c0.clone();
        gemm(
            Trans::No,
            Trans::No,
            1.5,
            a.as_ref(),
            b.as_ref(),
            0.5,
            c.as_mut(),
        );
        c
    };
    let pinned = gemm_once(active(), &a, &b, &c0, 1.5, 0.5);
    for (x, y) in auto1.as_slice().iter().zip(auto2.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "dispatch must be deterministic");
    }
    for (x, y) in auto1.as_slice().iter().zip(pinned.as_slice()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "override plumbing must match auto dispatch on the same backend"
        );
    }
    if forced {
        let explicit = gemm_once(Backend::Scalar, &a, &b, &c0, 1.5, 0.5);
        for (x, y) in auto1.as_slice().iter().zip(explicit.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "env-forced scalar must be the oracle"
            );
        }
    }
}

/// A `rows x k` explicit `V` (unit diagonal, zeros above, values below),
/// an upper-triangular `T`, and a target matrix with a margin of 3 rows
/// and 2 columns around the applied region, all seeded from `seed`.
fn wy_operands<T: dense::scalar::Scalar>(
    rows: usize,
    k: usize,
    wc: usize,
    seed: u64,
) -> (Matrix<T>, Matrix<T>, Matrix<T>) {
    let raw = dense::generate::uniform::<T>(rows, k, seed);
    let v = Matrix::from_fn(rows, k, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => T::ZERO,
        std::cmp::Ordering::Equal => T::ONE,
        std::cmp::Ordering::Greater => raw[(i, j)],
    });
    let t = Matrix::from_fn(k, k, |i, j| {
        if i <= j {
            T::from_f64(((i * 7 + j * 3) % 11) as f64 / 8.0 - 0.6)
        } else {
            T::ZERO
        }
    });
    let c = dense::generate::uniform::<T>(rows + 5, wc + 4, seed ^ 7);
    (v, t, c)
}

/// `larfb_left_in_place` with a packed `V` against `larfb_left` on a copy
/// of the region, for every backend: the whole target matrix must match
/// bit for bit (the margin around the region untouched).
fn assert_in_place_apply_bit_identical<T: dense::scalar::Scalar>() {
    use dense::blocked::{larfb_left, larfb_left_in_place, PackedV};
    use dense::MatPtr;
    let bits =
        |m: &Matrix<T>| -> Vec<u64> { m.as_slice().iter().map(|x| x.to_f64().to_bits()).collect() };
    // Rows that no register-tile height divides (37, 133), rows above KC
    // (300: two sweeps of `W = V^T C`), column blocks that no `nr`
    // divides (13, 7), full 32-column blocks, and a product small enough
    // for `gemm`'s streaming loop (24x4x4), which runs on a copy.
    let shapes = [
        (37, 8, 13),
        (133, 32, 32),
        (300, 16, 7),
        (256, 32, 32),
        (24, 4, 4),
    ];
    for backend in Backend::available() {
        for (rows, k, wc) in shapes {
            for transpose in [true, false] {
                let ctx = format!(
                    "{backend:?} f{} {rows}x{k} wc {wc} transpose {transpose}",
                    8 * std::mem::size_of::<T>()
                );
                let (v, t, c0) = wy_operands::<T>(rows, k, wc, (rows + k + wc) as u64);
                let (r0, col0) = (3, 2);
                let got = with_backend(backend, || {
                    let kern = T::gemm_kernel(backend);
                    let mut buf = vec![T::from_f64(f64::NAN); PackedV::len(rows, k, &kern)];
                    let pv = PackedV::pack(v.as_ref(), kern, &mut buf);
                    let mut c = c0.clone();
                    // SAFETY: one caller owns the whole matrix.
                    unsafe {
                        larfb_left_in_place(
                            &pv,
                            t.as_ref(),
                            transpose,
                            MatPtr::new(&mut c),
                            (r0, col0),
                            wc,
                        )
                    };
                    c
                });
                let want = with_backend(backend, || {
                    let mut region = c0.extract(r0, col0, rows, wc);
                    larfb_left(v.as_ref(), t.as_ref(), transpose, region.as_mut());
                    let mut c = c0.clone();
                    for j in 0..wc {
                        for i in 0..rows {
                            c[(r0 + i, col0 + j)] = region[(i, j)];
                        }
                    }
                    c
                });
                assert_eq!(bits(&got), bits(&want), "{ctx}");
            }
        }
    }
}

#[test]
fn in_place_packed_apply_is_bit_identical_to_larfb_on_every_backend() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert_in_place_apply_bit_identical::<f64>();
    assert_in_place_apply_bit_identical::<f32>();
}

/// The strided-`B` micro-kernel instance against the packed instance on
/// the same operands, for every backend: `B` lives in a column-major
/// matrix with a leading dimension larger than `kb`, its packed copy is
/// zero-padded to `nr`, and every `C` element (the live corner and the
/// untouched rest) must match bit for bit at full and ragged `h`/`w`.
fn assert_strided_ukr_matches_packed<T: dense::scalar::Scalar>() {
    let kb = 13;
    for backend in Backend::available() {
        let kern = T::gemm_kernel(backend);
        let (mr, nr) = (kern.mr, kern.nr);
        let ap = dense::generate::uniform::<T>(kb * mr, 1, 3);
        let (ldb, ldc) = (kb + 5, mr + 3);
        let b = dense::generate::uniform::<T>(ldb, nr, 4);
        let mut bp = vec![T::ZERO; kb * nr];
        let c0 = dense::generate::uniform::<T>(ldc, nr, 5);
        for (h, w) in [
            (mr, nr),
            (mr - 1, nr - 1),
            (mr, 1),
            (1, nr),
            (1, 1),
            (mr / 2 + 1, 3),
        ] {
            let ctx = format!("{backend:?} f{} {h}x{w}", 8 * std::mem::size_of::<T>());
            for p in 0..kb {
                for jj in 0..nr {
                    bp[p * nr + jj] = if jj < w { b[(1 + p, jj)] } else { T::ZERO };
                }
            }
            let alpha = T::from_f64(-1.25);
            let mut packed = c0.clone();
            let mut strided = c0.clone();
            // SAFETY: the panels hold kb * mr / kb * nr elements, B's
            // first w columns hold rows 1..=kb, the h x w corner of C is
            // in bounds, and the backend is available.
            unsafe {
                (kern.ukr)(
                    kb,
                    ap.as_slice().as_ptr(),
                    bp.as_ptr(),
                    alpha,
                    packed.as_mut_slice().as_mut_ptr(),
                    ldc,
                    h,
                    w,
                );
                (kern.ukr_strided)(
                    kb,
                    ap.as_slice().as_ptr(),
                    b.as_slice().as_ptr().add(1),
                    1,
                    ldb,
                    alpha,
                    strided.as_mut_slice().as_mut_ptr(),
                    ldc,
                    h,
                    w,
                );
            }
            for (i, (x, y)) in packed.as_slice().iter().zip(strided.as_slice()).enumerate() {
                assert_eq!(x.to_f64().to_bits(), y.to_f64().to_bits(), "{ctx} C[{i}]");
            }
        }
    }
}

#[test]
fn strided_b_microkernel_matches_packed_instance_on_every_backend() {
    assert_strided_ukr_matches_packed::<f64>();
    assert_strided_ukr_matches_packed::<f32>();
}
