//! Absolute accuracy of the host reference `caqr_cpu`: backward error
//! `‖A − QR‖_F / ‖A‖_F` and loss of orthogonality `‖I − QᵀQ‖_F`, each
//! bounded by `C · n · ε` with the constant `C` fixed in DESIGN.md §7.
//! Every input also runs directly through the simulator's three executors
//! — synchronous, the 3-stream DAG with lookahead, and the fault-free
//! recovering run on 3 streams — and a two-member fused `factor_many`
//! group, whose factored bits must equal `caqr_cpu`'s, so the bound holds
//! on them too. `backend_conformance` pins the cluster bit-identical to
//! `caqr_cpu`.
//!
//! The inputs are the ones a QR must not lose accuracy on: graded columns,
//! rank deficiency, a zero and a duplicated column, entries near either
//! end of the exponent range, and Kahan's matrix. Checksums are on in
//! `caqr_cpu`, in the recovering run and in the fused group, so a false
//! ABFT alarm on any of them fails the run too.

use caqr::{caqr_cpu, drive, drive_recovering, factor_many, BlockSize, CaqrOptions};
use caqr::{CpuCaqrOptions, Mode, RecoveryPolicy, SimBackend, TreeShape};
use dense::generate;
use dense::matrix::Matrix;
use dense::norms::{orthogonality_error, reconstruction_error};
use dense::scalar::Scalar;
use gpu_sim::{DeviceSpec, Gpu};

/// The `C` of the `C · n · ε` bound (DESIGN.md §7).
const C: f64 = 2.0;

/// `(rows, cols, tile_rows, panel_width)`: two tall shapes, the second
/// with odd tile remainders and a narrow last panel (37 = 2·16 + 5), and
/// a wide one (`m < n`). The last two have tiles larger than their type's
/// `dense::householder::factor_l1_bytes` budget (32 KiB for f64, 40 KiB
/// for f32), so their tiles take the blocked factor: 512x32 tiles (64 KiB
/// in f32) in both precisions, and 640x20 tiles (50 KiB in f32) whose
/// last 8-column block is a ragged 4 wide, with a short last tile
/// (1500 = 2·640 + 220).
const SHAPES: [(usize, usize, usize, usize); 5] = [
    (1000, 40, 64, 16),
    (1001, 37, 64, 16),
    (40, 100, 16, 8),
    (4096, 64, 512, 32),
    (1500, 40, 640, 20),
];

/// `a` with every entry multiplied by `s`.
fn scaled<T: Scalar>(a: &Matrix<T>, s: f64) -> Matrix<T> {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| {
        T::from_f64(a[(i, j)].to_f64() * s)
    })
}

/// Singular values graded from 1 down to `1e-12`.
fn graded<T: Scalar>(m: usize, n: usize) -> Matrix<T> {
    let k = m.min(n);
    let decay = 1e-12f64.powf(1.0 / (k - 1) as f64);
    if m >= n {
        generate::graded(m, n, decay, 3)
    } else {
        generate::graded::<T>(n, m, decay, 3).transpose()
    }
}

/// Kahan's matrix, `diag(sⁱ)·(I − c·U)` with `s = sin θ`, `c = cos θ`,
/// `θ = 1.2` and `U` the all-ones strictly upper triangle, in the top
/// `min(m, n)` rows; every other row is zero.
fn kahan<T: Scalar>(m: usize, n: usize) -> Matrix<T> {
    let (s, c) = 1.2f64.sin_cos();
    Matrix::from_fn(m, n, |i, j| {
        let v = match (i < m.min(n), i.cmp(&j)) {
            (false, _) | (_, std::cmp::Ordering::Greater) => 0.0,
            (true, std::cmp::Ordering::Equal) => 1.0,
            (true, std::cmp::Ordering::Less) => -c,
        };
        T::from_f64(s.powi(i as i32) * v)
    })
}

/// The named inputs of an `m x n` run; `big` is the scale of the extreme
/// inputs (`big` and `1 / big`).
fn inputs<T: Scalar>(m: usize, n: usize, big: f64) -> Vec<(String, Matrix<T>)> {
    let uniform = generate::uniform::<T>(m, n, 1);
    let mut zero_col = uniform.clone();
    zero_col.col_mut(3).fill(T::ZERO);
    let mut dup_col = uniform.clone();
    let c2 = dup_col.col(2).to_vec();
    dup_col.col_mut(5).copy_from_slice(&c2);
    vec![
        ("uniform".into(), uniform.clone()),
        ("graded to 1e-12".into(), graded(m, n)),
        ("rank 5".into(), generate::low_rank(m, n, 5, 0.0, 2)),
        ("zero column".into(), zero_col),
        ("duplicated column".into(), dup_col),
        (format!("scaled by {big:e}"), scaled(&uniform, big)),
        (
            format!("scaled by {:e}", 1.0 / big),
            scaled(&uniform, 1.0 / big),
        ),
        ("Kahan, θ = 1.2".into(), kahan(m, n)),
    ]
}

/// A C2050 with room for the largest tiles here: staging a 512x32 tile's
/// `V` for the apply takes 64 KiB of shared memory, more than the real
/// device's 48 KiB, and the device model does not touch the arithmetic.
fn roomy_c2050() -> DeviceSpec {
    DeviceSpec {
        smem_per_sm: 256 * 1024,
        ..DeviceSpec::c2050()
    }
}

/// The bits of every entry of `a`, column-major.
fn bits<T: Scalar>(a: &Matrix<T>) -> Vec<u64> {
    a.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Factor every input at every shape with checksums on and check both
/// metrics against `C · n · ε`, and that the simulator's executors and a
/// fused group factor it to the same bits. Returns the largest metric seen, in units
/// of `n · ε`.
fn check_precision<T: Scalar>(big: f64) -> f64 {
    let eps = T::epsilon().to_f64();
    let mut worst = 0.0f64;
    for (m, n, h, w) in SHAPES {
        let opts = CpuCaqrOptions {
            tile_rows: h,
            panel_width: w,
            tree: TreeShape::DeviceArity,
            verify_checksums: true,
        };
        let sim_opts = CaqrOptions {
            bs: BlockSize { h, w },
            tree: TreeShape::DeviceArity,
            ..CaqrOptions::default()
        };
        let bound = C * n as f64 * eps;
        for (name, a) in inputs::<T>(m, n, big) {
            let f = caqr_cpu(a.clone(), opts).unwrap_or_else(|e| panic!("{m}x{n} {name}: {e}"));
            let cfg = sim_opts.drive_config();
            let gpu = Gpu::new(roomy_c2050());
            let sim = drive(&SimBackend::sync(&gpu), a.clone(), &cfg, Mode::Sync)
                .unwrap_or_else(|e| panic!("{m}x{n} {name} on the simulator: {e}"));
            assert!(bits(&sim.a) == bits(&f.a), "{m}x{n} {name}: simulator bits");
            let gpu = Gpu::new(roomy_c2050());
            let dag = SimBackend::streams(&gpu, 3)
                .and_then(|s| drive(&s, a.clone(), &cfg, Mode::Dag { lookahead: true }))
                .unwrap_or_else(|e| panic!("{m}x{n} {name} on the stream DAG: {e}"));
            assert!(
                bits(&dag.a) == bits(&f.a),
                "{m}x{n} {name}: stream DAG bits"
            );
            let gpu = Gpu::new(roomy_c2050());
            let policy = RecoveryPolicy::default();
            let (rec, report) = SimBackend::resilient(&gpu, 3)
                .and_then(|s| drive_recovering(&s, a.clone(), &cfg, &policy))
                .unwrap_or_else(|e| panic!("{m}x{n} {name} on the recovering run: {e}"));
            assert!(
                bits(&rec.a) == bits(&f.a),
                "{m}x{n} {name}: recovering bits"
            );
            let replays = [report.task_replays, report.run_retries];
            assert_eq!(
                replays,
                [0, 0],
                "{m}x{n} {name}: a fault-free run replays nothing"
            );
            let (fused, stats) = factor_many(vec![(a.clone(), opts); 2], &[], true);
            assert_eq!(stats.fused_jobs, 2, "{m}x{n} {name}: one fused group");
            for (k, r) in fused.iter().enumerate() {
                let g = r
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{m}x{n} {name} fused member {k}: {e}"));
                assert!(bits(&g.a) == bits(&f.a), "{m}x{n} {name}: member {k} bits");
            }
            let q = f.generate_q(m.min(n)).unwrap();
            let backward = reconstruction_error(&a, &q, &f.r());
            let orth = orthogonality_error(&q);
            for (metric, v) in [("backward error", backward), ("orthogonality", orth)] {
                assert!(
                    v <= bound,
                    "{m}x{n} {name}: {metric} {v:.3e} exceeds {C}·n·ε = {bound:.3e}"
                );
                worst = worst.max(v / (n as f64 * eps));
            }
        }
    }
    worst
}

#[test]
fn caqr_cpu_is_backward_stable_and_orthogonal_in_f64() {
    let worst = check_precision::<f64>(1e300);
    println!("f64: worst metric {worst:.3} n·ε");
}

#[test]
fn caqr_cpu_is_backward_stable_and_orthogonal_in_f32() {
    let worst = check_precision::<f32>(1e35);
    println!("f32: worst metric {worst:.3} n·ε");
}
