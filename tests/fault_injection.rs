//! End-to-end fault-injection tests: transient launch faults, silent data
//! corruptions, and hangs are absorbed by retry / ABFT-guided replay
//! without perturbing the numerics, and exhausted budgets surface as typed
//! [`CaqrError`] values rather than panics, deadlocks, or garbage.

use caqr::recovery::{caqr_resilient, RecoveryOptions, RecoveryPolicy};
use caqr::schedule::{caqr_dag, ScheduleOptions};
use caqr::{BlockSize, CaqrError, CaqrOptions, CpuCaqrOptions, ReductionStrategy, SimBackend};
use gpu_sim::{DeviceSpec, FaultKind, FaultPlan, Gpu, RetryPolicy};

fn opts() -> CaqrOptions {
    CaqrOptions {
        bs: BlockSize { h: 64, w: 16 },
        strategy: ReductionStrategy::RegisterSerialTransposed,
        tree: caqr::block::TreeShape::DeviceArity,
        check_finite: true,
    }
}

#[test]
fn retried_caqr_run_is_bit_identical_to_fault_free_run() {
    let a = dense::generate::uniform::<f64>(1024, 32, 9);

    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = caqr::caqr::caqr(&clean_gpu, a.clone(), opts()).unwrap();
    let clean_q = clean
        .generate_q_on(&SimBackend::sync(&clean_gpu), 32)
        .unwrap();

    // Fault the first attempt of three launches spread across the pipeline;
    // an explicit plan's retries always succeed.
    let gpu = Gpu::new(DeviceSpec::c2050());
    gpu.set_fault_plan(FaultPlan::at_launches(&[0, 4, 9]));
    let faulted = caqr::caqr::caqr(&gpu, a.clone(), opts()).unwrap();
    let faulted_q = faulted.generate_q_on(&SimBackend::sync(&gpu), 32).unwrap();

    // Faults fire at admission, before any block runs, so the retried run
    // must be bit-identical — not merely close.
    assert_eq!(clean.r(), faulted.r());
    assert_eq!(clean_q, faulted_q);

    let l = gpu.ledger();
    assert_eq!(l.faults, 3, "three first attempts faulted");
    assert_eq!(l.retries, 3, "each fault recovered on its retry");
    // Successful-call accounting matches the fault-free run exactly.
    assert_eq!(l.calls, clean_gpu.ledger().calls);
    // The faulted run paid for the wasted submissions and backoff.
    assert!(l.seconds > clean_gpu.ledger().seconds);
}

#[test]
fn seeded_transient_faults_are_absorbed_and_deterministic() {
    let a = dense::generate::uniform::<f64>(768, 24, 3);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = caqr::caqr::caqr(&clean_gpu, a.clone(), opts()).unwrap();

    // Generous attempt budget so a 20% transient rate cannot plausibly
    // exhaust retries; the seeded plan is a pure function of (seed, launch,
    // attempt), so this test is deterministic.
    let run = |seed: u64| {
        let gpu = Gpu::new(DeviceSpec::c2050());
        gpu.set_fault_plan_with_policy(
            FaultPlan::seeded(seed, 0.2),
            RetryPolicy {
                max_attempts: 8,
                backoff_us: 5.0,
            },
        );
        let f = caqr::caqr::caqr(&gpu, a.clone(), opts()).unwrap();
        (f.r(), gpu.ledger().faults)
    };
    let (r1, faults1) = run(1234);
    let (r2, faults2) = run(1234);
    assert_eq!(r1, r2, "same seed, same run");
    assert_eq!(faults1, faults2);
    assert_eq!(r1, clean.r(), "faults must not perturb the numerics");
}

#[test]
fn exhausted_retries_surface_as_typed_fault() {
    let a = dense::generate::uniform::<f64>(256, 16, 5);
    let gpu = Gpu::new(DeviceSpec::c2050());
    // Rate 1.0: every attempt of every launch faults, so the very first
    // launch (the input health check) exhausts its attempts.
    gpu.set_fault_plan(FaultPlan::seeded(0, 1.0));
    let err = match caqr::caqr::caqr(&gpu, a, opts()) {
        Ok(_) => panic!("expected the factorization to fail"),
        Err(e) => e,
    };
    match err {
        CaqrError::Fault {
            kernel,
            launch_index,
            attempts,
        } => {
            assert_eq!(kernel, "health_check");
            assert_eq!(launch_index, 0);
            assert_eq!(attempts, RetryPolicy::default().max_attempts);
        }
        other => panic!("expected CaqrError::Fault, got {other}"),
    }
    let l = gpu.ledger();
    assert_eq!(l.calls, 0, "no launch ever succeeded");
    assert_eq!(l.faults as u32, RetryPolicy::default().max_attempts);
    assert!(l.seconds > 0.0, "wasted submissions still cost time");
}

#[test]
fn dag_schedule_recovers_from_transient_faults() {
    let a = dense::generate::uniform::<f64>(1024, 32, 7);
    let sched = ScheduleOptions {
        caqr: opts(),
        streams: 2,
        lookahead: true,
    };

    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let (clean, _) = caqr_dag(&clean_gpu, a.clone(), sched).unwrap();

    let gpu = Gpu::new(DeviceSpec::c2050());
    gpu.set_fault_plan(FaultPlan::at_launches(&[1, 2, 6]));
    let (faulted, _) = caqr_dag(&gpu, a, sched).unwrap();

    assert_eq!(clean.r(), faulted.r());
    let l = gpu.ledger();
    assert_eq!(l.faults, 3);
    assert_eq!(l.retries, 3);
}

#[test]
fn seeded_plans_are_pure_functions_of_their_inputs() {
    // Two plans built from identical inputs must agree on every
    // (launch, attempt) pair — this is what makes every chaos test in this
    // file deterministic rather than flaky.
    let p1 = FaultPlan::seeded_mix(42, 0.10, 0.05, 0.02);
    let p2 = FaultPlan::seeded_mix(42, 0.10, 0.05, 0.02);
    let mut kinds = [0usize; 3];
    for launch in 0..2000u64 {
        for attempt in 0..4u32 {
            let k = p1.fault_kind(launch, attempt);
            assert_eq!(k, p2.fault_kind(launch, attempt));
            match k {
                Some(FaultKind::LaunchFail) => kinds[0] += 1,
                Some(FaultKind::Sdc) => kinds[1] += 1,
                Some(FaultKind::Hang) => kinds[2] += 1,
                // Plain seeded plans draw only the three transient kinds;
                // whole-device loss is explicit-plan-only and host panics
                // come only from `seeded_service_mix`.
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
    let quiet = FaultPlan::seeded(7, 0.0);
    assert!((0..500u64).all(|l| quiet.fault_kind(l, 0).is_none()));
}

#[test]
fn backoff_is_monotone_and_capped() {
    let p = RetryPolicy::default();
    let mut prev = 0.0f64;
    for attempt in 0..64u32 {
        let b = p.backoff_seconds(attempt);
        assert!(
            b.is_finite() && b >= prev,
            "attempt {attempt}: {b} < {prev}"
        );
        prev = b;
    }
    // The exponent saturates at 20: arbitrarily late attempts never
    // overflow to infinity and all pay the same capped backoff.
    let cap = p.backoff_seconds(20);
    for attempt in 21..64u32 {
        assert_eq!(p.backoff_seconds(attempt), cap);
    }
}

#[test]
fn persistent_hang_exhausts_watchdog_into_typed_timeout() {
    let a = dense::generate::uniform::<f64>(256, 16, 13);
    let gpu = Gpu::new(DeviceSpec::c2050());
    // An explicit hang is persistent across retry attempts (a stuck unit,
    // not a transient): the plain driver's retries cannot escape it, so the
    // watchdog must convert it into a typed Timeout instead of spinning.
    gpu.set_fault_plan(FaultPlan::hang_at_launches(&[0]));
    let err = match caqr::caqr::caqr(&gpu, a, opts()) {
        Ok(_) => panic!("a persistently hung launch cannot succeed"),
        Err(e) => e,
    };
    match err {
        CaqrError::Timeout {
            kernel,
            launch_index,
            deadline_us,
        } => {
            assert_eq!(kernel, "health_check");
            assert_eq!(launch_index, 0);
            assert!(deadline_us > 0);
        }
        other => panic!("expected CaqrError::Timeout, got {other}"),
    }
    let l = gpu.ledger();
    assert_eq!(l.hangs as u32, RetryPolicy::default().max_attempts);
    assert_eq!(l.calls, 0, "no launch ever completed");
    assert!(
        l.seconds > 0.0,
        "hung attempts still pay deadline + backoff"
    );
}

#[test]
fn sdc_is_detected_and_replayed_to_bit_identity() {
    let a = dense::generate::uniform::<f64>(640, 32, 17);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = caqr::caqr::caqr(&clean_gpu, a.clone(), opts()).unwrap();

    let gpu = Gpu::new(DeviceSpec::c2050());
    // Launches 0/1 are the health check and pretranspose; 2 and 5 land on
    // factor / apply kernels whose outputs the checksums guard.
    gpu.set_fault_plan(FaultPlan::sdc_at_launches(&[2, 5]));
    let ropts = RecoveryOptions {
        caqr: opts(),
        streams: 3,
        policy: RecoveryPolicy::default(),
    };
    let (f, report) = caqr_resilient(&gpu, a, ropts).unwrap();
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
fn chaos_soak_recovers_bit_identically_across_seeds() {
    // Seeded chaos: mixed launch-fail / SDC / hang plans across several
    // seeds. Every run must converge to the exact fault-free bits, replay
    // only a small fraction of the schedule, and keep its ledger counters
    // in lock-step with the returned report.
    let a = dense::generate::uniform::<f64>(384, 48, 21);
    let clean_gpu = Gpu::new(DeviceSpec::c2050());
    let clean = caqr::caqr::caqr(&clean_gpu, a.clone(), opts()).unwrap();
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
        gpu.set_fault_plan_with_policy(
            FaultPlan::seeded_mix(seed, 0.05, 0.03, 0.03),
            RetryPolicy {
                max_attempts: 6,
                backoff_us: 5.0,
            },
        );
        let ropts = RecoveryOptions {
            caqr: opts(),
            streams: 3,
            policy: RecoveryPolicy::default(),
        };
        let (f, report) = match caqr_resilient(&gpu, a.clone(), ropts) {
            Ok(ok) => ok,
            Err(e) => panic!("seed {seed}: recovery failed: {e}"),
        };
        assert_eq!(f.r(), clean.r(), "seed {seed}: bits must match");
        let l = gpu.ledger();
        assert_eq!(l.task_replays, report.task_replays, "seed {seed}");
        assert_eq!(l.panel_replays, report.panel_replays, "seed {seed}");
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
    // Every launch hangs on every attempt: no replay tier can make
    // progress, so the ladder must exhaust into a typed error — never a
    // panic, deadlock, or silently wrong factorization.
    gpu.set_fault_plan(FaultPlan::seeded_mix(3, 0.0, 0.0, 1.0));
    let err = match caqr_resilient(&gpu, a, RecoveryOptions::default()) {
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
fn fault_plan_does_not_outlive_clear() {
    let a = dense::generate::uniform::<f64>(256, 16, 11);
    let gpu = Gpu::new(DeviceSpec::c2050());
    gpu.set_fault_plan(FaultPlan::seeded(0, 1.0));
    assert!(caqr::caqr::caqr(&gpu, a.clone(), opts()).is_err());
    gpu.clear_fault_plan();
    let faults_before = gpu.ledger().faults;
    caqr::caqr::caqr(&gpu, a, opts()).unwrap();
    assert_eq!(gpu.ledger().faults, faults_before, "no new faults");
}

#[test]
fn device_loss_is_terminal_on_a_single_device() {
    let a = dense::generate::uniform::<f64>(1024, 32, 9);
    let gpu = Gpu::new(DeviceSpec::c2050());
    gpu.set_fault_plan(FaultPlan::device_loss_at_launches(&[2]));
    // No retry can answer on a dead device: the driver must fail fast with
    // the typed loss, not spin through the retry budget.
    match caqr::caqr::caqr(&gpu, a.clone(), opts()) {
        Err(CaqrError::DeviceLost { launch_index, .. }) => assert_eq!(launch_index, 2),
        other => panic!("expected DeviceLost, got {:?}", other.map(|_| ())),
    }
    assert!(gpu.is_lost(), "the lost flag persists after the failed run");
    assert_eq!(gpu.ledger().device_losses, 1);

    // Every subsequent launch fails immediately, whatever the kernel.
    match caqr::caqr::caqr(&gpu, a.clone(), opts()) {
        Err(CaqrError::DeviceLost { .. }) => {}
        other => panic!("a lost device must stay lost, got {:?}", other.map(|_| ())),
    }

    // The resilient executor's ladder also refuses to spin on it: loss is
    // deliberately not a transient tier (recovery needs a survivor, which
    // a single device does not have).
    let gpu2 = Gpu::new(DeviceSpec::c2050());
    gpu2.set_fault_plan(FaultPlan::device_loss_at_launches(&[0]));
    let recovery = RecoveryOptions {
        caqr: opts(),
        ..RecoveryOptions::default()
    };
    match caqr_resilient(&gpu2, a.clone(), recovery) {
        Err(CaqrError::DeviceLost { .. }) | Err(CaqrError::Unrecoverable { .. }) => {}
        other => panic!(
            "resilient ladder must not absorb device loss, got {:?}",
            other.map(|_| ())
        ),
    }

    // reset() revives the device (the simulated node rejoining): with the
    // fault script cleared, a fresh run on the same Gpu succeeds and
    // matches a clean device bit-for-bit.
    gpu.clear_fault_plan();
    gpu.reset();
    assert!(!gpu.is_lost());
    let revived = caqr::caqr::caqr(&gpu, a.clone(), opts()).unwrap();
    let clean = caqr::caqr::caqr(&Gpu::new(DeviceSpec::c2050()), a, opts()).unwrap();
    assert_eq!(revived.r(), clean.r());
}
