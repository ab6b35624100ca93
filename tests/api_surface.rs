//! Small-surface tests: error display, ledger summaries, report fields —
//! the glue a downstream user sees first — plus the error-path contract:
//! malformed or non-finite user input returns a typed `Err`, never a panic.

use caqr::{
    BlockSize, CaqrBackend, CaqrError, CaqrOptions, CpuBackend, Factorization, ReductionStrategy,
    SimBackend,
};
use dense::matrix::Matrix;
use gpu_sim::{DeviceSpec, Gpu, LaunchError};

fn small_opts() -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h: 32, w: 8 },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
        check_finite: true,
    }
}

#[test]
fn errors_render_usefully() {
    let e = CaqrError::BadShape("panel out of range".into());
    assert!(e.to_string().contains("panel out of range"));
    let e = CaqrError::Launch(LaunchError::SharedMemory {
        requested: 100_000,
        available: 49_152,
    });
    let s = e.to_string();
    assert!(s.contains("100000") && s.contains("49152"), "{s}");
    let e = LaunchError::Threads {
        requested: 1024,
        max: 512,
    };
    assert!(e.to_string().contains("1024"));
    assert!(LaunchError::EmptyGrid.to_string().contains("empty"));
    // The taxonomy added for robustness hardening.
    let e = CaqrError::NonFinite {
        context: "caqr input",
        row: 90,
        col: 2,
    };
    let s = e.to_string();
    assert!(
        s.contains("caqr input") && s.contains("90") && s.contains('2'),
        "{s}"
    );
    let e = CaqrError::Fault {
        kernel: "factor",
        launch_index: 7,
        attempts: 3,
    };
    let s = e.to_string();
    assert!(
        s.contains("factor") && s.contains('7') && s.contains('3'),
        "{s}"
    );
    let e = CaqrError::Breakdown {
        context: "iterate went non-finite".into(),
    };
    assert!(e.to_string().contains("iterate went non-finite"));
    // The fault-recovery taxonomy: timeouts, checksum hits, exhaustion.
    let e = CaqrError::Timeout {
        kernel: "apply_qt_h",
        launch_index: 12,
        deadline_us: 50_000,
    };
    let s = e.to_string();
    assert!(
        s.contains("apply_qt_h") && s.contains("12") && s.contains("50000"),
        "{s}"
    );
    let e = CaqrError::ChecksumMismatch {
        stage: "apply",
        panel: 1,
        col: 37,
    };
    let s = e.to_string();
    assert!(s.contains("apply") && s.contains("37"), "{s}");
    let e = CaqrError::Unrecoverable {
        context: "run retry budget (1) exhausted".into(),
    };
    assert!(e.to_string().contains("run retry budget"), "{e}");
}

#[test]
fn nan_input_is_rejected_not_propagated() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let mut a = dense::generate::uniform::<f64>(256, 16, 1);
    a[(90, 2)] = f64::NAN;

    // caqr: typed error naming the first offender in column-major order.
    match caqr::caqr::caqr(&gpu, a.clone(), small_opts()) {
        Err(CaqrError::NonFinite { row, col, .. }) => {
            assert_eq!((row, col), (90, 2));
        }
        Err(other) => panic!("expected NonFinite, got {other}"),
        Ok(_) => panic!("caqr accepted a NaN matrix"),
    }

    // tsqr: same contract.
    let r = caqr::tsqr(
        &gpu,
        a.clone(),
        BlockSize { h: 32, w: 16 },
        ReductionStrategy::RegisterSerialTransposed,
    );
    assert!(matches!(r, Err(CaqrError::NonFinite { .. })));

    // CPU reference path: same contract, no device involved.
    let r = caqr::multicore::caqr_cpu(a.clone(), caqr::multicore::CpuCaqrOptions::for_width(16));
    assert!(matches!(r, Err(CaqrError::NonFinite { .. })));

    // Infinity is rejected the same way as NaN.
    a[(90, 2)] = f64::INFINITY;
    let r = caqr::caqr::caqr(&gpu, a, small_opts());
    assert!(matches!(r, Err(CaqrError::NonFinite { .. })));
}

#[test]
fn disabling_the_health_check_skips_its_launch() {
    let a = dense::generate::uniform::<f64>(256, 16, 2);
    let count = |check_finite: bool| {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let o = CaqrOptions {
            check_finite,
            ..small_opts()
        };
        let f = caqr::caqr::caqr(&gpu, a.clone(), o).unwrap();
        assert_eq!(f.launches as u64, gpu.ledger().calls);
        gpu.ledger().calls
    };
    assert_eq!(count(true), count(false) + 1);
}

/// The three boundary checks of the one `Q`-apply surface, on `backend`.
fn assert_boundary_errors<B: CaqrBackend<f64>>(name: &str, f: &Factorization<f64>, backend: &B) {
    // Applying Q^T to a matrix with the wrong row count.
    let mut c = Matrix::<f64>::zeros(100, 4);
    assert!(
        matches!(
            f.apply_on(backend, &mut c, true),
            Err(CaqrError::BadShape(_))
        ),
        "{name}: apply"
    );

    // More Q columns than rows.
    assert!(
        matches!(
            f.generate_q_on(backend, 10_000),
            Err(CaqrError::BadShape(_))
        ),
        "{name}: generate_q"
    );

    // Right-hand side of the wrong length.
    let b = Matrix::from_fn(7, 1, |_, _| 1.0f64);
    assert!(
        matches!(f.least_squares_on(backend, &b), Err(CaqrError::BadShape(_))),
        "{name}: least_squares"
    );
}

#[test]
fn shape_mismatches_are_typed_errors_not_panics() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f64>(256, 16, 3);
    // (executor, its factorization, applied on the simulator or the host)
    let rows = [
        (
            "caqr",
            caqr::caqr::caqr(&gpu, a.clone(), small_opts()).unwrap(),
            true,
        ),
        (
            "caqr_cpu",
            caqr::caqr_cpu(a.clone(), caqr::CpuCaqrOptions::for_width(16)).unwrap(),
            false,
        ),
        (
            "tsqr",
            caqr::tsqr(
                &gpu,
                a,
                BlockSize { h: 64, w: 16 },
                ReductionStrategy::RegisterSerialTransposed,
            )
            .unwrap(),
            true,
        ),
    ];
    for (name, f, on_sim) in &rows {
        if *on_sim {
            assert_boundary_errors(name, f, &SimBackend::sync(&gpu));
        } else {
            assert_boundary_errors(name, f, &CpuBackend);
        }
    }
}

#[test]
fn rpca_error_paths_are_typed() {
    use rpca::{rpca, CpuQrBackend, RpcaParams};

    // Wide matrix: wrong orientation.
    let wide = dense::generate::uniform::<f64>(5, 50, 4);
    assert!(matches!(
        rpca(&CpuQrBackend, &wide, &RpcaParams::default()),
        Err(CaqrError::BadShape(_))
    ));

    // Non-finite observation.
    let mut m = dense::generate::uniform::<f64>(60, 6, 5);
    m[(10, 1)] = f64::NAN;
    assert!(matches!(
        rpca(&CpuQrBackend, &m, &RpcaParams::default()),
        Err(CaqrError::NonFinite {
            row: 10,
            col: 1,
            ..
        })
    ));

    // svd_via_qr rejects a wide matrix.
    assert!(matches!(
        rpca::svd_via_qr(&CpuQrBackend, &wide),
        Err(CaqrError::BadShape(_))
    ));
}

#[test]
fn ledger_summary_is_humane() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let a = dense::generate::uniform::<f32>(512, 16, 1);
    let _ = caqr::tsqr(
        &gpu,
        a,
        BlockSize::c2050_best(),
        caqr::ReductionStrategy::RegisterSerialTransposed,
    )
    .unwrap();
    let s = gpu.ledger().summary();
    assert!(s.contains("factor"));
    assert!(s.contains("GFLOP/s"));
    assert!(s.contains("calls"));
    // Every line of the per-op breakdown is well formed.
    for line in s.lines().skip(1) {
        assert!(line.contains("calls"), "malformed summary line: {line}");
    }
}

#[test]
fn kernel_reports_expose_boundedness() {
    let gpu = Gpu::new(DeviceSpec::c2050());
    let mut a = dense::generate::uniform::<f32>(2048, 16, 2);
    let tiles = caqr::block::tile_panel(0, 2048, 128, 16);
    let wy: Vec<parking_lot::Mutex<Option<caqr::tsqr::WyTile<f32>>>> = tiles
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let k = caqr::kernels::FactorKernel {
        a: dense::MatPtr::new(&mut a),
        tiles: &tiles,
        col0: 0,
        width: 16,
        strategy: caqr::ReductionStrategy::RegisterSerialTransposed,
        spec: gpu.spec(),
        wy: &wy,
    };
    let report = gpu.launch(&k).unwrap();
    assert_eq!(report.name, "factor");
    assert_eq!(report.blocks, 16);
    assert!(report.seconds > 0.0);
    assert!(report.gflops > 0.0);
    // factor is issue/stall-bound, not DRAM-bound.
    assert!(report.compute_bound);
}

#[test]
fn default_options_are_the_papers_configuration() {
    let o = CaqrOptions::default();
    assert_eq!(o.bs, BlockSize { h: 128, w: 16 });
    assert!(o.strategy.needs_pretranspose());
    assert_eq!(o.tree, caqr::TreeShape::DeviceArity);
    assert_eq!(o.bs.threads(), 64);
    assert!(o.check_finite, "the input health check defaults on");
}

#[test]
fn device_presets_match_their_datasheets() {
    let c = DeviceSpec::c2050();
    assert_eq!(c.sms, 14);
    assert_eq!(c.smem_per_sm, 48 * 1024);
    assert_eq!(c.regfile_per_sm, 128 * 1024);
    let g = DeviceSpec::gtx480();
    assert_eq!(g.sms, 15);
    assert!(g.clock_ghz > c.clock_ghz);
}
