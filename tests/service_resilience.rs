//! Property and integration tests for service-tier fault tolerance
//! (DESIGN.md §15).
//!
//! The chaos contract: under seeded fault injection (SDC, hangs, launch
//! faults, host panics, worker kills), **every** submitted ticket resolves
//! with a result or a typed error, every successfully recovered matrix is
//! bit-identical to a standalone `caqr_cpu` run, riders of a faulted batch
//! member never diverge, and the per-tenant ledger reconciles exactly —
//! with shed/expired jobs charging no compute counters and fault-retry
//! work segregated into the dedicated `retry_*` counters.

use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::CaqrError;
use caqr::{
    factor_many, FaultKind, FaultPlan, JobSpec, PlannedFault, Priority, ResilienceConfig,
    RetryBudget, Service, ServiceConfig, ServiceError, ServiceFaultPlan, TreeShape,
};
use dense::matrix::Matrix;
use proptest::prelude::*;
use std::time::Duration;

fn opts(h: usize, w: usize) -> CpuCaqrOptions {
    CpuCaqrOptions {
        tile_rows: h,
        panel_width: w,
        tree: TreeShape::DeviceArity,
        verify_checksums: false,
    }
}

/// Quiet the injected panics: the chaos suites deliberately unwind worker
/// and task threads, and the default hook would spray backtraces over the
/// test output. Panics that are not ours still print.
fn silence_injected_panics() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.to_string()));
        if msg.as_deref().is_some_and(|m| m.contains("injected")) {
            return;
        }
        hook(info);
    }));
}

/// One planned fault against every member of a fused batch, one kind at a
/// time: the faulted member is carved out with the matching typed error,
/// and every rider stays bit-identical. The same job alone in its group is
/// carved out with the same error.
#[test]
fn carved_members_get_typed_errors_and_riders_stay_bitwise() {
    silence_injected_panics();
    let o = opts(48, 16);
    let mk = |s: usize| dense::generate::uniform::<f64>(280, 16, 900 + s as u64);
    let want: Vec<Matrix<f64>> = (0..4).map(|s| caqr_cpu(mk(s), o).unwrap().a).collect();
    for kind in [
        FaultKind::LaunchFail,
        FaultKind::Sdc,
        FaultKind::Hang,
        FaultKind::HostPanic,
        FaultKind::DeviceLoss,
    ] {
        for victim in 0..4usize {
            let jobs: Vec<(Matrix<f64>, CpuCaqrOptions)> = (0..4).map(|s| (mk(s), o)).collect();
            let mut faults = vec![None; 4];
            faults[victim] = Some(PlannedFault {
                kind,
                ordinal: victim as u64,
                payload: (victim as u64) << 16 | (victim as u64 & 1),
            });
            let (results, stats) = factor_many(jobs, &faults, false);
            assert_eq!(stats.fused_groups, 1);
            let (alone, _) = factor_many(vec![(mk(victim), o)], &faults[victim..], false);
            for r in [&results[victim], &alone[0]] {
                let typed = matches!(
                    (kind, r),
                    (FaultKind::LaunchFail, Err(CaqrError::Fault { .. }))
                        | (FaultKind::Sdc, Err(CaqrError::ChecksumMismatch { .. }))
                        | (FaultKind::Hang, Err(CaqrError::Timeout { .. }))
                        | (FaultKind::HostPanic, Err(CaqrError::Panicked { .. }))
                        | (FaultKind::DeviceLoss, Err(CaqrError::DeviceLost { .. }))
                );
                let err = r.as_ref().err();
                assert!(typed, "victim {victim} under {kind:?}: {err:?}");
                if let Some(CaqrError::Panicked { context }) = err {
                    assert!(context.contains("injected host panic"), "{context}");
                }
            }
            for (i, r) in results.iter().enumerate().filter(|&(i, _)| i != victim) {
                assert_eq!(
                    r.as_ref().unwrap().a,
                    want[i],
                    "rider {i} diverged when {victim} faulted with {kind:?}"
                );
            }
        }
    }
}

/// A job alone in its shape class takes the fused members' recovery path:
/// the batch carves it out with its typed error, and one retry round
/// re-runs it from its spec, bit-identical to `caqr_cpu`, with the rerun
/// charged to the `retry_*` counters only.
#[test]
fn a_singleton_fault_recovers_in_one_retry_round() {
    let o = opts(24, 8);
    let a = dense::generate::uniform::<f64>(200, 16, 4242);
    let want = caqr_cpu(a.clone(), o).unwrap();
    let launches = caqr::service::logical_launches(&want) as u64;
    for plan in [
        FaultPlan::at(FaultKind::Sdc, &[0]),
        FaultPlan::at(FaultKind::LaunchFail, &[0]),
    ] {
        let plan = ServiceFaultPlan::new(plan);
        let fault = plan.draw(0, 0).expect("seq 0 faults on its batch attempt");
        let (results, stats) = factor_many(vec![(a.clone(), o)], &[Some(fault)], false);
        let carved = results[0].as_ref().err();
        assert!(
            matches!(
                (fault.kind, carved),
                (FaultKind::Sdc, Some(CaqrError::ChecksumMismatch { .. }))
                    | (FaultKind::LaunchFail, Some(CaqrError::Fault { .. }))
            ),
            "{fault:?} must carve the job, got {carved:?}"
        );
        assert_eq!((stats.solo_jobs, stats.fused_groups), (1, 0));

        let resilience = ResilienceConfig {
            faults: Some(plan),
            ..ResilienceConfig::default()
        };
        let svc = Service::<f64>::start(ServiceConfig {
            resilience,
            ..ServiceConfig::default()
        });
        let spec = JobSpec::new(a.clone(), o).tenant("alone");
        let out = svc
            .submit(spec)
            .expect("accepting")
            .wait()
            .expect("resolves");
        assert_eq!((out.retries, out.fused_with), (1, 1), "{fault:?}");
        assert_eq!(out.result.expect("recovers").a, want.a, "{fault:?}");
        let ledger = svc.ledger();
        let r = &ledger.tenants["alone"];
        let got = (r.retry_jobs, r.retry_attempts, r.retry_launches, r.launches);
        assert_eq!(got, (1, 1, launches, 0), "{fault:?}");
        assert!(r.retry_launches > 0 && (r.solo_jobs, r.fused_jobs) == (1, 0));
        ledger.reconcile().expect("retry accounting reconciles");
        svc.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shed jobs (deadline-expired at dispatch) and failed jobs never add
    /// compute counters — panels, launches, flops stay zero for a tenant
    /// whose entire traffic was shed — and the ledger still reconciles.
    #[test]
    fn shed_jobs_charge_no_compute(njobs in 1usize..6, seed in 0u64..1000) {
        let svc = Service::<f64>::start(ServiceConfig {
            workers: 1,
            queue_capacity: 32,
            max_batch: 4,
            ..ServiceConfig::default()
        });
        let mut tickets = Vec::new();
        for s in 0..njobs as u64 {
            let a = dense::generate::uniform::<f64>(120, 8, seed * 37 + s);
            // Zero deadline: already expired at dispatch, always shed.
            let spec = JobSpec::new(a, opts(24, 8))
                .tenant("doomed")
                .deadline(Duration::ZERO);
            tickets.push(svc.submit(spec).unwrap_or_else(|_| panic!("accepting")));
        }
        for t in tickets {
            let out = t.wait().expect("shed tickets resolve");
            let shed = matches!(out.result, Err(ServiceError::DeadlineExpired { .. }));
            prop_assert!(shed, "expected every doomed job to be shed");
        }
        let ledger = svc.ledger();
        let row = ledger.tenants.get("doomed").expect("tenant row exists");
        prop_assert_eq!(row.jobs_shed, njobs as u64);
        prop_assert_eq!(row.panels, 0);
        prop_assert_eq!(row.launches, 0);
        prop_assert_eq!(row.retry_launches, 0);
        prop_assert!(row.flops == 0.0, "shed jobs must not charge flops");
        prop_assert_eq!(row.jobs_completed, 0);
        ledger.reconcile().expect("shed accounting reconciles");
        svc.shutdown();
    }

    /// Fault-retried jobs land their extra work in the dedicated `retry_*`
    /// counters: a deterministically-faulted job that recovers solo charges
    /// `retry_launches` (not `launches`), and both sides of the split
    /// ledger still reconcile exactly.
    #[test]
    fn retry_work_lands_in_retry_counters(seed in 0u64..500) {
        silence_injected_panics();
        // Host-panic job seq 0 on its first attempt: whether the job lands
        // fused or alone in its group, it is carved out with `Panicked`,
        // and the service must spend a retry round — attempt 1 draws no
        // fault and succeeds.
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 4,
            resilience: ResilienceConfig {
                faults: Some(ServiceFaultPlan::new(FaultPlan::at(FaultKind::HostPanic, &[0]))),
                retry: RetryBudget {
                    max_retries: 2,
                    backoff: Duration::from_micros(50),
                    max_backoff: Duration::from_micros(200),
                },
                ..ResilienceConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = Service::<f64>::start(cfg);
        // Two same-shape jobs: seq 0 faults (carved), seq 1 rides clean.
        let a0 = dense::generate::uniform::<f64>(160, 8, 7000 + seed);
        let a1 = dense::generate::uniform::<f64>(160, 8, 8000 + seed);
        let w0 = caqr_cpu(a0.clone(), opts(24, 8)).unwrap().a;
        let w1 = caqr_cpu(a1.clone(), opts(24, 8)).unwrap().a;
        let t0 = svc
            .submit(JobSpec::new(a0, opts(24, 8)).tenant("faulty"))
            .unwrap_or_else(|_| panic!("accepting"));
        let t1 = svc
            .submit(JobSpec::new(a1, opts(24, 8)).tenant("clean"))
            .unwrap_or_else(|_| panic!("accepting"));
        let o0 = t0.wait().expect("resolves");
        let o1 = t1.wait().expect("resolves");
        let f0 = o0.result.expect("faulted job recovers in a retry round");
        prop_assert_eq!(f0.a, w0);
        prop_assert!(o0.retries >= 1, "job 0 must have spent retries");
        prop_assert_eq!(o1.result.expect("clean rider").a, w1);
        prop_assert_eq!(o1.retries, 0);
        let ledger = svc.ledger();
        let faulty = ledger.tenants.get("faulty").expect("tenant row");
        prop_assert_eq!(faulty.retry_jobs, 1);
        prop_assert!(faulty.retry_attempts >= 1);
        prop_assert!(
            faulty.retry_launches > 0,
            "recovered-by-retry work must charge retry_launches"
        );
        prop_assert!(
            faulty.launches == 0,
            "retried jobs charge retry_launches, not launches"
        );
        let clean = ledger.tenants.get("clean").expect("tenant row");
        prop_assert_eq!(clean.retry_jobs, 0);
        prop_assert!(clean.launches > 0);
        ledger.reconcile().expect("retry accounting reconciles");
        svc.shutdown();
    }

    /// The full chaos contract over a random workload of two shape classes
    /// (fused batches and jobs alone in theirs): seeded mixed faults +
    /// periodic worker kills; every ticket resolves, some jobs complete,
    /// every success is bitwise-correct, every lost ticket is a ledger
    /// loss, and the ledger reconciles.
    #[test]
    fn chaos_tickets_all_resolve_bitwise(seed in 0u64..200) {
        silence_injected_panics();
        let cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 4,
            resilience: ResilienceConfig {
                verify_batches: true,
                faults: Some(
                    ServiceFaultPlan::new(FaultPlan::seeded_service_mix(
                        seed, 0.08, 0.08, 0.04, 0.04,
                    ))
                    .worker_panic_every(6),
                ),
                retry: RetryBudget {
                    max_retries: 3,
                    backoff: Duration::from_micros(50),
                    max_backoff: Duration::from_micros(400),
                },
            },
            ..ServiceConfig::default()
        };
        let svc = Service::<f64>::start(cfg);
        let mut want = Vec::new();
        let mut tickets = Vec::new();
        for s in 0..12u64 {
            let (m, w) = if s % 4 == 0 { (180, 12) } else { (140, 8) };
            let o = opts(3 * w, w);
            let a = dense::generate::uniform::<f64>(m, w, seed * 1000 + s);
            want.push(caqr_cpu(a.clone(), o).unwrap().a);
            let spec = JobSpec::new(a, o)
                .tenant(["t0", "t1", "t2"][(s % 3) as usize])
                .priority(Priority::ALL[(s % 3) as usize]);
            tickets.push(svc.submit(spec).unwrap_or_else(|_| panic!("accepting")));
        }
        let (mut completed, mut lost) = (0u64, 0u64);
        for (t, want) in tickets.into_iter().zip(want) {
            let out = t.wait().expect("every chaos ticket resolves");
            match out.result {
                Ok(f) if f.a == want => completed += 1,
                Ok(_) => prop_assert!(false, "chaos survivor must stay bitwise"),
                Err(ServiceError::WorkerLost { .. }) => lost += 1,
                // Every injected kind is retryable: a failure is a spent
                // budget or a lost worker, never a bare factorization error.
                Err(ServiceError::Caqr(e)) => prop_assert!(false, "unretried {}", e),
                Err(_) => {}
            }
        }
        let ledger = svc.ledger();
        let g = &ledger.global;
        prop_assert!(completed > 0, "a service failing every job must not pass");
        prop_assert_eq!(g.jobs_completed, completed);
        prop_assert_eq!(g.jobs_lost, lost);
        prop_assert_eq!(g.jobs_completed + g.jobs_failed + g.jobs_lost, 12);
        ledger.reconcile().expect("chaos accounting reconciles");
        svc.shutdown();
    }
}
