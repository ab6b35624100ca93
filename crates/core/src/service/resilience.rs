//! Service-tier resilience policy (DESIGN.md §15): the seeded fault
//! campaign the service draws one fault per job from, the bounded budget
//! of retry rounds that re-run carved-out jobs, the overload
//! circuit-breaker policy, and the per-tenant admission quotas. The
//! service recovers one way: the batch engine detects a fault and carves
//! its job out, and a retry round re-runs the job from its spec.

use crate::error::CaqrError;
use crate::fault::{FaultPlan, PlannedFault};
use crate::recovery::is_transient;
use std::time::Duration;

/// A seeded fault campaign against the service: which jobs fault (keyed by
/// admission sequence number through a [`FaultPlan`]), plus an optional
/// worker-killing cadence for supervision testing.
#[derive(Clone, Debug)]
pub struct ServiceFaultPlan {
    /// Per-job fault draw, keyed by `(job seq, attempt)`, so each retry
    /// round re-draws and a seeded plan is reproducible end to end. The
    /// batch engine steers a drawn fault onto one task of its job
    /// ([`PlannedFault::task_plan`]).
    pub plan: FaultPlan,
    /// Kill the serving worker (panic its thread) on every N-th dispatched
    /// batch, exercising worker supervision. `None` disables.
    pub worker_panic_every: Option<u64>,
}

impl ServiceFaultPlan {
    /// A fault campaign over `plan`, with worker kills disabled.
    pub fn new(plan: FaultPlan) -> ServiceFaultPlan {
        ServiceFaultPlan {
            plan,
            worker_panic_every: None,
        }
    }

    /// Kill the serving worker on every `every`-th batch.
    pub fn worker_panic_every(mut self, every: u64) -> ServiceFaultPlan {
        self.worker_panic_every = Some(every.max(1));
        self
    }

    /// Draw the planned fault for job `seq` on retry round `attempt` (0 =
    /// the batch attempt). Deterministic in `(seed, seq, attempt)`.
    pub fn draw(&self, seq: u64, attempt: u32) -> Option<PlannedFault> {
        self.plan.fault(seq, attempt)
    }
}

/// Bounded retry budget with exponential backoff: how many retry rounds
/// the service runs for the jobs a batch carved out retryably, and how
/// long it waits before each. A round re-runs every still-retryable job of
/// the batch from its spec through the batch engine, so retried jobs fuse
/// with each other.
#[derive(Clone, Copy, Debug)]
pub struct RetryBudget {
    /// Retry rounds per batch after the batch attempt (0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first round; doubles per subsequent round.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            max_retries: 2,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryBudget {
    /// Backoff before retry round `attempt` (1-based): `backoff * 2^(attempt-1)`,
    /// capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        self.backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// The overload circuit breaker's thresholds (DESIGN.md §15). The breaker
/// **opens** when queue depth reaches `open_depth` or the deadline-miss
/// rate over the last `miss_window` deadline-carrying completions reaches
/// `open_miss_rate`; while open, `Batch`-priority jobs are shed at
/// dispatch with [`super::ServiceError::Overloaded`]. It **closes** only
/// once depth falls to `close_depth` — the hysteresis gap keeps it from
/// flapping at the threshold.
#[derive(Clone, Copy, Debug)]
pub struct ShedPolicy {
    /// Open when queue depth at dispatch reaches this.
    pub open_depth: usize,
    /// Close only when depth has drained to this (must be < `open_depth`).
    pub close_depth: usize,
    /// Sliding window of deadline-carrying completions the miss rate is
    /// measured over (0 disables the miss-rate trigger).
    pub miss_window: usize,
    /// Open when the windowed miss rate reaches this fraction. Values
    /// above 1.0 disable the trigger.
    pub open_miss_rate: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy::disabled()
    }
}

impl ShedPolicy {
    /// No shedding beyond expired deadlines (the pre-resilience behaviour).
    pub fn disabled() -> ShedPolicy {
        ShedPolicy {
            open_depth: usize::MAX,
            close_depth: 0,
            miss_window: 0,
            open_miss_rate: 1.1,
        }
    }

    /// A sane policy for a queue of `capacity`: open at 3/4 full or a 50%
    /// miss rate over 32 completions, close at 1/4 full.
    pub fn recommended(capacity: usize) -> ShedPolicy {
        ShedPolicy {
            open_depth: (capacity * 3 / 4).max(2),
            close_depth: capacity / 4,
            miss_window: 32,
            open_miss_rate: 0.5,
        }
    }

    /// Whether any trigger is live.
    pub fn enabled(&self) -> bool {
        self.open_depth != usize::MAX || self.open_miss_rate <= 1.0
    }
}

/// Per-tenant admission quota: how many jobs one tenant may have queued at
/// once. Violations are rejected immediately with
/// [`super::SubmitError::QuotaExceeded`] — never blocked — so a greedy
/// tenant cannot camp on the backpressure path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TenantQuota {
    /// No per-tenant cap (the queue bound still applies).
    #[default]
    Unlimited,
    /// A flat per-tenant cap on queued jobs.
    MaxQueued(usize),
    /// Fair share: each tenant may queue `capacity / active_tenants`
    /// (tenants with jobs queued, the submitter included), but never less
    /// than `min`. The cap tightens as more tenants contend.
    FairShare {
        /// Floor below which the fair share never shrinks.
        min: usize,
    },
}

/// The service's resilience configuration. Everything defaults to off: a
/// default-configured service runs the plain fused engine with no
/// verification overhead and no retries. When on, recovery takes one path:
/// the batch engine carves a faulted job out with a typed error, and
/// retry rounds re-run it.
#[derive(Clone, Debug, Default)]
pub struct ResilienceConfig {
    /// Verify every batch with the ABFT checksums even without planned
    /// faults (detection always on, ~the checksum overhead of §9).
    pub verify_batches: bool,
    /// Inject a seeded fault campaign (tests, chaos soak).
    pub faults: Option<ServiceFaultPlan>,
    /// Retry rounds for jobs that fail retryably in a batch.
    pub retry: RetryBudget,
}

impl ResilienceConfig {
    /// Whether dispatch must route through the resilient engine at all.
    pub fn active(&self) -> bool {
        self.verify_batches || self.faults.is_some()
    }
}

/// Should the service spend a retry round on this error? Transient faults
/// (launch faults, hangs, checksum mismatches) retry, as do caught panics
/// (the task that died took no state with it — the job's input is intact
/// in the spec). Deterministic failures — bad shapes, non-finite input,
/// breakdowns, a lost device — fail fast.
pub fn service_retryable(e: &CaqrError) -> bool {
    is_transient(e) || matches!(e, CaqrError::Panicked { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{drive_recovering, CpuBackend, Factorization, Faulty};
    use crate::block::TreeShape;
    use crate::fault::FaultKind;
    use crate::multicore::{caqr_cpu, CpuCaqrOptions};
    use crate::recovery::{RecoveryPolicy, RecoveryReport};
    use dense::matrix::Matrix;

    /// The §10 ladder on the host: a group of one on a [`Faulty`]
    /// [`CpuBackend`] under `policy`, with one planned fault steered onto
    /// one of the run's `tasks` tasks.
    fn solo_ladder(
        a: Matrix<f64>,
        opts: CpuCaqrOptions,
        (fault, tasks): (PlannedFault, u64),
        policy: &RecoveryPolicy,
    ) -> Result<(Factorization<f64>, RecoveryReport), CaqrError> {
        let cfg = opts.drive_config();
        let backend = Faulty::new(CpuBackend, vec![fault.task_plan(tasks)]);
        drive_recovering(&backend, a, &cfg, policy)
    }

    fn opts() -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: 48,
            panel_width: 16,
            tree: TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }

    #[test]
    fn solo_ladder_recovers_transient_injections_bitwise() {
        // 300x32 in panels of 16: the fault-free task order is F A F, so
        // payloads 0..3 steer the fault to every task ordinal. Each policy
        // leaves one tier to absorb it: the task tier by default, the run
        // tier with no task replays.
        let a = dense::generate::uniform::<f64>(300, 32, 5);
        let want = caqr_cpu(a.clone(), opts()).unwrap();
        let run_tier = RecoveryPolicy {
            max_task_replays: 0,
            max_run_retries: 1,
        };
        let policies = [RecoveryPolicy::default(), run_tier];
        for (tier, policy) in policies.iter().enumerate() {
            for kind in [FaultKind::LaunchFail, FaultKind::Hang, FaultKind::Sdc] {
                for payload in 0..3u64 {
                    let case = format!("{kind:?}@{payload} under {policy:?}");
                    let fault = PlannedFault {
                        kind,
                        ordinal: 9,
                        payload,
                    };
                    let (got, r) = solo_ladder(a.clone(), opts(), (fault, 3), policy)
                        .unwrap_or_else(|e| panic!("{case} must recover, got {e}"));
                    assert_eq!(got.a, want.a, "{case} diverged after recovery");
                    let mut replays = [0; 2];
                    replays[tier] = 1;
                    let got = [r.task_replays, r.run_retries];
                    assert_eq!(got, replays, "{case} must replay once");
                }
            }
        }
    }

    #[test]
    fn one_steering_rule_for_solo_and_fused_runs() {
        // 120x24 in panels of 8: three panels, the first two with trailing
        // columns, so the fault-free task order is F A F A F.
        let o = CpuCaqrOptions {
            tile_rows: 24,
            panel_width: 8,
            ..opts()
        };
        let stages = ["factor", "apply", "factor", "apply", "factor"];
        let mk = |s: u64| dense::generate::uniform::<f64>(120, 24, 600 + s);
        let want: Vec<Matrix<f64>> = (0..3).map(|s| caqr_cpu(mk(s), o).unwrap().a).collect();
        for (payload, stage) in stages.iter().enumerate() {
            let payload = payload as u64;
            for kind in [FaultKind::LaunchFail, FaultKind::Hang, FaultKind::Sdc] {
                let fault = PlannedFault {
                    kind,
                    ordinal: 3,
                    payload,
                };
                let (got, _) = solo_ladder(mk(1), o, (fault, 5), &RecoveryPolicy::default())
                    .unwrap_or_else(|e| panic!("{kind:?}@{payload} must recover: {e}"));
                assert_eq!(got.a, want[1], "{kind:?}@{payload} diverged after recovery");
            }
            for kind in [
                FaultKind::LaunchFail,
                FaultKind::Hang,
                FaultKind::DeviceLoss,
                FaultKind::Sdc,
                FaultKind::HostPanic,
            ] {
                let faults = [
                    None,
                    Some(PlannedFault {
                        kind,
                        ordinal: 3,
                        payload,
                    }),
                ];
                let (results, _) =
                    super::super::factor_many((0..3).map(|s| (mk(s), o)).collect(), &faults, false);
                for (j, r) in results.iter().enumerate() {
                    match (j, r) {
                        (1, Err(CaqrError::Fault { kernel, .. })) => assert_eq!(kernel, stage),
                        (1, Err(CaqrError::ChecksumMismatch { stage: s, .. })) => {
                            assert_eq!(s, stage)
                        }
                        (1, Err(_)) => {}
                        (1, Ok(_)) => panic!("{kind:?}@{payload} must carve its victim"),
                        (_, r) => assert_eq!(
                            r.as_ref().unwrap().a,
                            want[j],
                            "rider {j} diverged under {kind:?}@{payload}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let b = RetryBudget {
            max_retries: 5,
            backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(9),
        };
        assert_eq!(b.backoff_for(1), Duration::from_millis(2));
        assert_eq!(b.backoff_for(2), Duration::from_millis(4));
        assert_eq!(b.backoff_for(3), Duration::from_millis(8));
        assert_eq!(b.backoff_for(4), Duration::from_millis(9));
        assert_eq!(b.backoff_for(30), Duration::from_millis(9));
    }

    #[test]
    fn shed_policy_enablement() {
        assert!(!ShedPolicy::disabled().enabled());
        assert!(ShedPolicy::recommended(64).enabled());
        let depth_only = ShedPolicy {
            open_depth: 10,
            close_depth: 2,
            miss_window: 0,
            open_miss_rate: 1.1,
        };
        assert!(depth_only.enabled());
    }

    #[test]
    fn seeded_service_plan_draws_reproducibly() {
        let plan = ServiceFaultPlan::new(FaultPlan::seeded_service_mix(42, 0.2, 0.2, 0.1, 0.1));
        let a: Vec<_> = (0..200).map(|s| plan.draw(s, 0)).collect();
        let b: Vec<_> = (0..200).map(|s| plan.draw(s, 0)).collect();
        assert_eq!(a, b, "draws must be deterministic in (seed, seq, attempt)");
        assert!(
            a.iter().flatten().count() > 0,
            "a 60% composite rate over 200 jobs must fault someone"
        );
    }
}
