//! End-to-end fault-injection tests: launch faults, silent data
//! corruptions and hangs, planned per task by the one injector
//! ([`Faulty`]), are absorbed by ABFT-guided replay without perturbing the
//! numerics, and exhausted budgets surface as typed [`CaqrError`] values
//! rather than panics, deadlocks, or garbage. Device loss is device state
//! ([`Gpu::lose_at_launch`]).

use caqr::recovery::{RecoveryPolicy, RecoveryReport};
use caqr::{
    drive, drive_recovering, factor_many, BlockSize, CaqrBackend, CaqrError, CaqrOptions,
    CpuBackend, CpuCaqrOptions, Factorization, FaultKind, FaultPlan, Faulty, Mode, PlannedFault,
    ReductionStrategy, SimBackend, TreeShape,
};
use gpu_sim::{DeviceSpec, Gpu, DEFAULT_WATCHDOG_US};

fn opts() -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h: 64, w: 16 },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
    }
}

/// The synchronous simulator, fault-free.
fn sync_run(gpu: &Gpu, a: dense::Matrix<f64>) -> Result<Factorization<f64>, CaqrError> {
    drive(
        &SimBackend::sync(gpu),
        a,
        &opts().drive_config(),
        Mode::Sync,
    )
}

type Recovered = Result<(Factorization<f64>, RecoveryReport), CaqrError>;

/// [`drive_recovering`] under `policy` on the resilient simulator with 3
/// streams, `faults` injected by [`Faulty`].
fn resilient_under(
    gpu: &Gpu,
    a: dense::Matrix<f64>,
    faults: FaultPlan,
    policy: RecoveryPolicy,
) -> Recovered {
    let backend = Faulty::new(SimBackend::resilient(gpu, 3)?, vec![faults]);
    drive_recovering(&backend, a, &opts().drive_config(), &policy)
}

/// [`resilient_under`] the default budgets.
fn resilient(gpu: &Gpu, a: dense::Matrix<f64>, faults: FaultPlan) -> Recovered {
    resilient_under(gpu, a, faults, RecoveryPolicy::default())
}

/// One run of the driver, with no recovery policy, on `inner` with `faults`
/// injected: a faulted task carves the run out with its typed error.
fn drive_faulty<B: CaqrBackend<f64>>(
    inner: B,
    a: dense::Matrix<f64>,
    faults: FaultPlan,
    mode: Mode,
) -> Result<Factorization<f64>, CaqrError> {
    drive(
        &Faulty::new(inner, vec![faults]),
        a,
        &opts().drive_config(),
        mode,
    )
}

/// [`drive_faulty`] on the synchronous simulator, expected to fail.
fn unrecovered(gpu: &Gpu, a: dense::Matrix<f64>, faults: FaultPlan) -> CaqrError {
    match drive_faulty(SimBackend::sync(gpu), a, faults, Mode::Sync) {
        Ok(_) => panic!("expected the factorization to fail"),
        Err(e) => e,
    }
}

#[test]
fn retried_caqr_run_is_bit_identical_to_fault_free_run() {
    let a = dense::generate::uniform::<f64>(1024, 32, 9);

    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let (clean, clean_report) = resilient(&clean_gpu, a.clone(), FaultPlan::default()).unwrap();
    let clean_q = clean
        .generate_q_on(&SimBackend::sync(&clean_gpu), 32)
        .unwrap();

    // 1024x32 in panels of 16 issues the tasks F A F. A replay takes a
    // fresh ordinal, so ordinals 0, 2 and 4 fail the first attempt of
    // each task; every replay succeeds.
    let gpu = Gpu::new(DeviceSpec::c2050());
    let faults = FaultPlan::at(FaultKind::LaunchFail, &[0, 2, 4]);
    let (faulted, report) = resilient(&gpu, a, faults).unwrap();
    let faulted_q = faulted.generate_q_on(&SimBackend::sync(&gpu), 32).unwrap();

    // A launch fault fails its task before any block runs, so the replayed
    // run must be bit-identical — not merely close.
    assert_eq!(clean.r(), faulted.r());
    assert_eq!(clean_q, faulted_q);

    assert_eq!([report.task_replays, report.run_retries], [3, 0]);
    assert_eq!(report.checksum_failures, 0, "no corruption was injected");
    let l = gpu.ledger();
    assert_eq!(l.faults, 3, "three first attempts faulted");
    assert_eq!(l.task_replays, 3, "each fault recovered on its replay");
    // The failed tasks launched nothing: the kernel launches match the
    // fault-free run exactly.
    assert_eq!(report.launches, clean_report.launches);
    // The faulted run paid for the wasted submissions.
    assert!(l.seconds > clean_gpu.ledger().seconds);
}

#[test]
fn exhausted_replay_budgets_surface_as_typed_unrecoverable() {
    let a = dense::generate::uniform::<f64>(256, 16, 5);
    let gpu = Gpu::new(DeviceSpec::c2050());
    // Every task faults, so the only panel's factor spends both tiers: each
    // of the two run attempts fails the task once and replays it twice.
    let policy = RecoveryPolicy {
        max_task_replays: 2,
        max_run_retries: 1,
    };
    let faults = FaultPlan::seeded_mix(0, 1.0, 0.0, 0.0);
    let err = match resilient_under(&gpu, a, faults, policy) {
        Ok(_) => panic!("an always-faulting device cannot produce a result"),
        Err(e) => e,
    };
    let last = CaqrError::Fault {
        kernel: "factor",
        launch_index: 5,
    };
    match err {
        CaqrError::Unrecoverable { context } => assert_eq!(
            context,
            format!("run retry budget (1) exhausted; last error: {last}")
        ),
        other => panic!("expected CaqrError::Unrecoverable, got {other}"),
    }
    let l = gpu.ledger();
    assert_eq!(l.faults, 6, "(1 + 2 replays) x (1 + 1 retry)");
    assert_eq!([l.task_replays, l.run_retries], [4, 1]);
}

#[test]
fn fault_plan_does_not_outlive_its_run() {
    // The plan travels with the run, not on the device: the next run on the
    // same Gpu injects nothing and gives the fault-free bits.
    let a = dense::generate::uniform::<f64>(640, 32, 41);
    let clean = sync_run(&Gpu::new(DeviceSpec::c2050()), a.clone()).unwrap();

    let gpu = Gpu::new(DeviceSpec::c2050());
    let faults = FaultPlan::seeded_mix(0, 1.0, 0.0, 0.0);
    assert!(resilient(&gpu, a.clone(), faults).is_err());
    let faults = gpu.ledger().faults;
    assert!(faults > 0, "the planned run faulted");

    let plain = sync_run(&gpu, a.clone()).unwrap();
    assert_eq!(plain.r(), clean.r());
    let (resilient_run, report) = resilient(&gpu, a, FaultPlan::default()).unwrap();
    assert_eq!(resilient_run.r(), clean.r());
    assert_eq!([report.task_replays, report.run_retries], [0, 0]);
    assert_eq!(gpu.ledger().faults, faults, "no later run faulted");
}

#[test]
fn one_injector_fails_the_same_task_on_host_and_simulator() {
    // 640x48 in panels of 16 on one slot: the tasks F A F A F. The same
    // plan through `Faulty` over the host backend and over the simulator
    // fails the same task with the same typed error.
    let a = dense::generate::uniform::<f64>(640, 48, 37);
    let sim_run = |faults: FaultPlan| {
        let gpu = Gpu::new(DeviceSpec::c2050());
        drive_faulty(SimBackend::sync(&gpu), a.clone(), faults, Mode::Sync)
    };
    let host_run = |faults: FaultPlan| drive_faulty(CpuBackend, a.clone(), faults, Mode::Sync);

    // An empty plan is transparent on both backends.
    let sim = sim_run(FaultPlan::default()).unwrap();
    let host = host_run(FaultPlan::default()).unwrap();
    let clean = sync_run(&Gpu::new(DeviceSpec::c2050()), a.clone()).unwrap();
    assert_eq!(sim.a, clean.a);
    assert_eq!(host.r(), clean.r());

    let kernels = ["factor", "apply", "factor", "apply", "factor"];
    for (k, kernel) in kernels.into_iter().enumerate() {
        let launch_index = k as u64;
        let expected = [
            CaqrError::Fault {
                kernel,
                launch_index,
            },
            CaqrError::Timeout {
                kernel,
                launch_index,
                deadline_us: DEFAULT_WATCHDOG_US as u64,
            },
        ];
        for (kind, want) in [FaultKind::LaunchFail, FaultKind::Hang]
            .into_iter()
            .zip(expected)
        {
            let case = format!("{kind:?} at task {k}");
            let plan = FaultPlan::at(kind, &[launch_index]);
            let on_sim = sim_run(plan.clone()).map(|_| ());
            let on_host = host_run(plan).map(|_| ());
            assert_eq!(on_sim, Err(want.clone()), "{case}: simulator");
            assert_eq!(on_host, Err(want), "{case}: host");
        }
    }
}

#[test]
fn dag_schedule_surfaces_planned_faults_as_typed_errors() {
    // The stream DAG has no recovery ladder: an empty plan leaves its bits
    // alone, and a planned fault ends the run with its typed error.
    let a = dense::generate::uniform::<f64>(1024, 32, 7);
    let mode = Mode::Dag { lookahead: true };
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let streams = SimBackend::streams(&clean_gpu, 2).unwrap();
    let clean = drive(&streams, a.clone(), &opts().drive_config(), mode).unwrap();
    clean_gpu.try_synchronize().unwrap();

    let gpu = Gpu::new(DeviceSpec::c2050());
    let sim = SimBackend::streams(&gpu, 2).unwrap();
    let quiet = drive_faulty(sim, a.clone(), FaultPlan::default(), mode).unwrap();
    assert_eq!(quiet.r(), clean.r());

    for k in 0..3u64 {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let sim = SimBackend::streams(&gpu, 2).unwrap();
        let plan = FaultPlan::at(FaultKind::LaunchFail, &[k]);
        match drive_faulty(sim, a.clone(), plan, mode) {
            Err(CaqrError::Fault { launch_index, .. }) => assert_eq!(launch_index, k, "task {k}"),
            other => panic!(
                "task {k}: expected CaqrError::Fault, got {:?}",
                other.map(|_| ())
            ),
        }
        assert_eq!(gpu.ledger().faults, 1, "task {k}");
    }
}

#[test]
fn an_unrecovered_launch_fault_surfaces_as_typed_fault() {
    let a = dense::generate::uniform::<f64>(256, 16, 5);
    let gpu = Gpu::new(DeviceSpec::c2050());
    // Every task faults, so the first one (the only panel's factor) fails
    // before it runs.
    match unrecovered(&gpu, a, FaultPlan::seeded_mix(0, 1.0, 0.0, 0.0)) {
        CaqrError::Fault {
            kernel,
            launch_index,
        } => {
            assert_eq!(kernel, "factor");
            assert_eq!(launch_index, 0);
        }
        other => panic!("expected CaqrError::Fault, got {other}"),
    }
    let l = gpu.ledger();
    // The health check and the pre-transpose ran; the factor never did.
    assert_eq!(l.calls, 2, "the failed launch is not a call");
    assert_eq!(l.faults, 1);
    let overhead = gpu.spec().launch_overhead_us * 1e-6;
    assert!(
        l.seconds > overhead,
        "the wasted submission still costs time"
    );
}

#[test]
fn seeded_transient_faults_are_absorbed_and_deterministic() {
    let a = dense::generate::uniform::<f64>(768, 24, 3);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = sync_run(&clean_gpu, a.clone()).unwrap();

    // A 20% per-task launch-fault rate; the seeded plan is a pure function
    // of (seed, task, attempt), so this test is deterministic.
    let run = |seed: u64| {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let faults = FaultPlan::seeded_mix(seed, 0.2, 0.0, 0.0);
        let (f, _) = resilient(&gpu, a.clone(), faults).unwrap();
        (f.r(), gpu.ledger().faults)
    };
    let (r1, faults1) = run(1234);
    let (r2, faults2) = run(1234);
    assert_eq!(r1, r2, "same seed, same run");
    assert_eq!(faults1, faults2);
    assert!(faults1 > 0, "the plan must fault some task");
    assert_eq!(r1, clean.r(), "faults must not perturb the numerics");
}

#[test]
fn seeded_plans_are_pure_functions_of_their_inputs() {
    // Two plans built from identical inputs must agree on every
    // (ordinal, attempt) pair — this is what makes every chaos test in this
    // file deterministic rather than flaky.
    let p1 = FaultPlan::seeded_mix(42, 0.10, 0.05, 0.02);
    let p2 = FaultPlan::seeded_mix(42, 0.10, 0.05, 0.02);
    let mut kinds = [0usize; 3];
    for ordinal in 0..2000u64 {
        for attempt in 0..4u32 {
            let k = p1.fault_kind(ordinal, attempt);
            assert_eq!(k, p2.fault_kind(ordinal, attempt));
            match k {
                Some(FaultKind::LaunchFail) => kinds[0] += 1,
                Some(FaultKind::Sdc) => kinds[1] += 1,
                Some(FaultKind::Hang) => kinds[2] += 1,
                // Plain seeded plans draw only the three transient kinds;
                // device loss is explicit-plan-only and host panics come
                // only from `seeded_service_mix`.
                Some(FaultKind::DeviceLoss | FaultKind::HostPanic) | None => {}
            }
        }
    }
    // All three bands are actually exercised at these rates.
    assert!(kinds.iter().all(|&c| c > 0), "bands hit: {kinds:?}");
    // A different seed draws a different fault pattern somewhere.
    let p3 = FaultPlan::seeded_mix(43, 0.10, 0.05, 0.02);
    assert!(
        (0..2000u64).any(|l| p1.fault_kind(l, 0) != p3.fault_kind(l, 0)),
        "seed must matter"
    );
    // Rate zero means no faults, ever.
    let quiet = FaultPlan::seeded_mix(7, 0.0, 0.0, 0.0);
    assert!((0..500u64).all(|l| quiet.fault_kind(l, 0).is_none()));
}

#[test]
fn an_unrecovered_hang_surfaces_as_typed_timeout() {
    let a = dense::generate::uniform::<f64>(256, 16, 13);
    let gpu = Gpu::new(DeviceSpec::c2050());
    // Without a recovery policy nothing replays the hung task: the
    // watchdog converts it into a typed Timeout instead of spinning.
    match unrecovered(&gpu, a, FaultPlan::at(FaultKind::Hang, &[0])) {
        CaqrError::Timeout {
            kernel,
            launch_index,
            deadline_us,
        } => {
            assert_eq!(kernel, "factor");
            assert_eq!(launch_index, 0);
            assert_eq!(deadline_us, DEFAULT_WATCHDOG_US as u64);
        }
        other => panic!("expected CaqrError::Timeout, got {other}"),
    }
    let l = gpu.ledger();
    assert_eq!(l.hangs, 1);
    assert_eq!(l.calls, 2, "the hung factor never completed");
    assert!(
        l.seconds >= DEFAULT_WATCHDOG_US * 1e-6,
        "the hang pays the watchdog deadline"
    );
}

#[test]
fn sdc_is_detected_and_replayed_to_bit_identity() {
    let a = dense::generate::uniform::<f64>(640, 32, 17);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = sync_run(&clean_gpu, a.clone()).unwrap();

    let gpu = Gpu::new(DeviceSpec::c2050());
    // 640x32 in panels of 16 issues the tasks F A F: corrupt the first
    // factor and the apply, outputs the checksums guard.
    let faults = FaultPlan::at(FaultKind::Sdc, &[0, 1]);
    let (f, report) = resilient(&gpu, a, faults).unwrap();
    assert_eq!(f.r(), clean.r(), "recovered run must be bit-identical");
    let l = gpu.ledger();
    assert_eq!(l.sdc_injected, 2, "both corruptions were injected");
    assert!(report.checksum_failures > 0, "ABFT caught the corruptions");
    assert!(
        report.task_replays > 0,
        "recovery replayed the faulted tasks"
    );
}

#[test]
fn every_ladder_tier_absorbs_an_sdc_bitwise() {
    // One SDC at task 2 (an apply of the first panel), absorbed on the
    // tier the budgets leave open: tier 1 by default, tier 2 with no task
    // replays.
    let a = dense::generate::uniform::<f64>(640, 48, 29);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = sync_run(&clean_gpu, a.clone()).unwrap();
    let run_tier = RecoveryPolicy {
        max_task_replays: 0,
        max_run_retries: 1,
    };
    let policies = [RecoveryPolicy::default(), run_tier];
    for (t, policy) in policies.into_iter().enumerate() {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let faults = FaultPlan::at(FaultKind::Sdc, &[2]);
        let case = format!("tier {}", t + 1);
        let (f, r) = resilient_under(&gpu, a.clone(), faults, policy)
            .unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
        assert_eq!(f.a, clean.a, "{case}: bits must match");
        let mut replays = [0; 2];
        replays[t] = 1;
        let got = [r.task_replays, r.run_retries];
        assert_eq!(got, replays, "{case}: {r:?}");
        assert_eq!(r.checksum_failures, 1, "{case}");
        // The ledger mirrors the report, and every kernel launch of every
        // attempt is in the report: the ledger's other calls are the
        // host-side verify and snapshot passes.
        let l = gpu.ledger();
        assert_eq!(l.sdc_injected, 1, "{case}");
        assert_eq!([l.task_replays, l.run_retries], got);
        let host_ops: u64 = ["checksum_verify", "snapshot"]
            .iter()
            .filter_map(|op| l.per_op.get(*op))
            .map(|e| e.calls)
            .sum();
        assert_eq!(r.launches, l.calls - host_ops, "{case}");
    }
}

#[test]
fn a_fault_or_hang_at_every_task_costs_one_task_replay() {
    // 640x48 in panels of 16 on 3 streams: 20 launches in 6 tasks when
    // clean (F A A F A F: the first panel's update spans two streams). A
    // launch fault or a hang at any task ordinal fails that task, which
    // replays once from its own input snapshot.
    let a = dense::generate::uniform::<f64>(640, 48, 31);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let (clean, report) = resilient(&clean_gpu, a.clone(), FaultPlan::default()).unwrap();
    assert_eq!(report.launches, 20);
    for k in 0..6 {
        for kind in [FaultKind::LaunchFail, FaultKind::Hang] {
            let gpu = Gpu::new(DeviceSpec::c2050());
            let case = format!("{kind:?} at task {k}");
            let (f, r) = resilient(&gpu, a.clone(), FaultPlan::at(kind, &[k]))
                .unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
            assert_eq!(f.a, clean.a, "{case}: bits must match");
            assert_eq!(r.task_replays, 1, "{case}: {r:?}");
            assert_eq!(r.run_retries, 0, "{case}: {r:?}");
            let l = gpu.ledger();
            assert_eq!([l.faults, l.hangs].iter().sum::<u64>(), 1, "{case}");
        }
    }
}

#[test]
fn chaos_soak_recovers_bit_identically_across_seeds() {
    // Seeded chaos: mixed launch-fail / SDC / hang plans across several
    // seeds. Every run must converge to the exact fault-free bits, replay
    // only a small fraction of the schedule, and keep its ledger counters
    // in lock-step with the returned report.
    let a = dense::generate::uniform::<f64>(384, 48, 21);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = sync_run(&clean_gpu, a.clone()).unwrap();
    // Independent host-multicore cross-check, with its own ABFT checks on.
    let cpu = caqr::caqr_cpu(
        a.clone(),
        CpuCaqrOptions {
            tile_rows: 64,
            panel_width: 16,
            tree: caqr::block::TreeShape::DeviceArity,
            verify_checksums: true,
        },
    )
    .unwrap();
    assert_eq!(clean.r(), cpu.r(), "GPU and CPU paths agree bitwise");

    for seed in 0..8u64 {
        let gpu = Gpu::new(DeviceSpec::c2050());
        let faults = FaultPlan::seeded_mix(seed, 0.05, 0.03, 0.03);
        let (f, report) = match resilient(&gpu, a.clone(), faults) {
            Ok(ok) => ok,
            Err(e) => panic!("seed {seed}: recovery failed: {e}"),
        };
        assert_eq!(f.r(), clean.r(), "seed {seed}: bits must match");
        let l = gpu.ledger();
        assert_eq!(l.task_replays, report.task_replays, "seed {seed}");
        assert_eq!(l.run_retries, report.run_retries, "seed {seed}");
        // Recovery is tile-granular: replayed work stays a small fraction
        // of the schedule instead of redoing whole runs.
        assert!(
            report.task_replays <= report.launches / 2,
            "seed {seed}: {} replays for {} launches",
            report.task_replays,
            report.launches
        );
    }
}

#[test]
fn unrecoverable_chaos_surfaces_typed_error_not_a_panic() {
    let a = dense::generate::uniform::<f64>(256, 16, 23);
    let gpu = Gpu::new(DeviceSpec::c2050());
    // Every task hangs: no replay tier can make progress, so the ladder
    // must exhaust into a typed error — never a panic, deadlock, or
    // silently wrong factorization.
    // The paper's configuration on the 4-stream resilient executor.
    let always_hang = FaultPlan::seeded_mix(3, 0.0, 0.0, 1.0);
    let cfg = CaqrOptions::default().drive_config();
    let policy = RecoveryPolicy::default();
    let run = SimBackend::resilient(&gpu, 4)
        .and_then(|sim| drive_recovering(&Faulty::new(sim, vec![always_hang]), a, &cfg, &policy));
    let err = match run {
        Ok(_) => panic!("an always-hanging device cannot produce a result"),
        Err(e) => e,
    };
    match err {
        CaqrError::Unrecoverable { context } => {
            assert!(
                context.contains("run retry budget"),
                "context should name the exhausted tier: {context}"
            );
        }
        other => panic!("expected CaqrError::Unrecoverable, got {other}"),
    }
    assert!(gpu.ledger().hangs > 0);
}

#[test]
fn device_loss_is_terminal_on_a_single_device() {
    let a = dense::generate::uniform::<f64>(1024, 32, 9);
    let gpu = Gpu::new(DeviceSpec::c2050());
    gpu.lose_at_launch(2);
    // No retry can answer on a dead device: the driver must fail fast with
    // the typed loss.
    match sync_run(&gpu, a.clone()) {
        Err(CaqrError::DeviceLost { launch_index, .. }) => assert_eq!(launch_index, 2),
        other => panic!("expected DeviceLost, got {:?}", other.map(|_| ())),
    }
    assert!(gpu.is_lost(), "the lost flag persists after the failed run");
    assert_eq!(gpu.ledger().device_losses, 1);

    // Every subsequent launch fails immediately, whatever the kernel.
    match sync_run(&gpu, a.clone()) {
        Err(CaqrError::DeviceLost { .. }) => {}
        other => panic!("a lost device must stay lost, got {:?}", other.map(|_| ())),
    }

    // The resilient executor's ladder also refuses to spin on it: loss is
    // deliberately not a transient tier (recovery needs a survivor, which
    // a single device does not have).
    let gpu2 = Gpu::new(DeviceSpec::c2050());
    gpu2.lose_at_launch(0);
    let policy = RecoveryPolicy::default();
    let run = SimBackend::resilient(&gpu2, 4).and_then(|sim| {
        let backend = Faulty::new(sim, vec![FaultPlan::default()]);
        drive_recovering(&backend, a.clone(), &opts().drive_config(), &policy)
    });
    match run {
        Err(CaqrError::DeviceLost { .. }) | Err(CaqrError::Unrecoverable { .. }) => {}
        other => panic!(
            "resilient ladder must not absorb device loss, got {:?}",
            other.map(|_| ())
        ),
    }

    // reset() revives the device (the simulated node rejoining) and
    // disarms the trigger: a fresh run on the same Gpu succeeds and
    // matches a clean device bit-for-bit.
    gpu.reset();
    assert!(!gpu.is_lost());
    let revived = sync_run(&gpu, a.clone()).unwrap();
    let clean = sync_run(&Gpu::new(DeviceSpec::c2050()), a).unwrap();
    assert_eq!(revived.r(), clean.r());
}

#[test]
fn a_lost_tree_launch_ends_the_panel_after_its_charged_factor() {
    // Launches 0–2 are the health scan, the pre-transpose and the first
    // panel's `factor`; launch 3, its first `factor_tree`, finds the
    // device gone. The simulator charges a chain before running its
    // arithmetic, and the ledger keeps exactly the admitted launches.
    let a = dense::generate::uniform::<f32>(1024, 32, 1);
    let gpu = Gpu::new(DeviceSpec::c2050());
    gpu.lose_at_launch(3);
    match drive(
        &SimBackend::sync(&gpu),
        a,
        &opts().drive_config(),
        Mode::Sync,
    ) {
        Err(CaqrError::DeviceLost {
            kernel,
            launch_index,
        }) => assert_eq!((kernel, launch_index), ("factor_tree", 3)),
        other => panic!("expected DeviceLost, got {:?}", other.map(|_| ())),
    }
    let l = gpu.ledger();
    assert_eq!(l.device_losses, 1);
    assert_eq!(l.calls, 3);
    let ops: Vec<(&str, u64, f64)> = (l.per_op.iter())
        .map(|(&op, s)| (op, s.calls, s.seconds))
        .collect();
    // The modelled C2050 seconds of each admitted launch.
    let want = [
        ("factor", 1, 5.300204923273657e-5),
        ("health_check", 1, 2.591022222222222e-5),
        ("pretranspose", 1, 2.682044444444444e-5),
    ];
    assert_eq!(ops, want);
    assert_eq!(l.seconds, 0.00010573271589940323);
}

#[test]
fn apply_checksums_catch_an_sdc_in_columns_whose_sums_overflow() {
    // At 1e305 and 1e306 the plain f64 sums `sum_i |u_i c_ij|` of this
    // shape overflow; the check rescales them and must still see the SDC
    // that task 1 (the first panel's apply) plants, and pass a clean run.
    let opts = CpuCaqrOptions {
        tile_rows: 512,
        panel_width: 32,
        tree: TreeShape::DeviceArity,
        verify_checksums: true,
    };
    let uniform = dense::generate::uniform::<f64>(4096, 64, 1);
    for scale in [1e305, 1e306] {
        let mut a = uniform.clone();
        a.as_mut_slice().iter_mut().for_each(|x| *x *= scale);
        let sdc = PlannedFault {
            kind: FaultKind::Sdc,
            ordinal: 0,
            payload: 1,
        };
        let (faulted, _) = factor_many(vec![(a.clone(), opts)], &[Some(sdc)], true);
        match &faulted[0] {
            Err(CaqrError::ChecksumMismatch { stage, panel, col }) => {
                assert_eq!((*stage, *panel, *col), ("apply", 0, 32), "at {scale:e}")
            }
            other => panic!(
                "SDC at {scale:e} not caught: {:?}",
                other.as_ref().map(|_| ())
            ),
        }
        let (clean, _) = factor_many(vec![(a, opts)], &[], true);
        if let Err(e) = &clean[0] {
            panic!("clean run at {scale:e} raised {e}");
        }
    }
}
