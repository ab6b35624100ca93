//! Service-tier resilience policy (DESIGN.md §15): the planned-fault
//! plumbing that threads gpu-sim fault injection through the host batch
//! engine ([`Faulty`]), the bounded budget of retry rounds that re-run
//! carved-out jobs, the overload circuit-breaker policy, and the
//! per-tenant admission quotas. The service recovers one way: the batch
//! engine detects a fault and carves its job out, and a retry round
//! re-runs the job from its spec.

use crate::backend::{CaqrBackend, DagGeometry, DriveConfig};
use crate::block::BlockSize;
use crate::error::CaqrError;
use crate::recovery::{is_transient, RecoveryReport};
use crate::tsqr::PanelFactor;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use dense::MatPtr;
use gpu_sim::{FaultKind, FaultPlan};
use std::cell::Cell;
use std::panic::catch_unwind;
use std::time::Duration;

/// One fault the service plans to inject against one job: drawn from a
/// [`ServiceFaultPlan`] at dispatch and steered into the batch engine
/// ([`super::factor_many`]) by the `payload` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The launch ordinal the fault is attributed to in typed errors
    /// (the job's admission sequence number, service-side).
    pub ordinal: u64,
    /// Deterministic steering bits (which panel / stage / element the
    /// fault hits), from [`gpu_sim::fault::sdc_payload`].
    pub payload: u64,
}

/// A seeded fault campaign against the service: which jobs fault (keyed by
/// admission sequence number through a [`FaultPlan`]), plus an optional
/// worker-killing cadence for supervision testing.
#[derive(Clone, Debug)]
pub struct ServiceFaultPlan {
    /// Per-job fault draw, keyed by `(job seq, attempt)` exactly like the
    /// device keys its plan by `(launch ordinal, attempt)` — so each retry
    /// round re-draws, and a seeded plan is reproducible end to end.
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
        self.plan.fault_kind(seq, attempt).map(|kind| PlannedFault {
            kind,
            ordinal: seq,
            payload: gpu_sim::fault::sdc_payload(seq, attempt),
        })
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

/// The one host-side fault injector: a decorator over any backend that
/// fires each group member's [`PlannedFault`] once, then runs honestly —
/// the host analogue of `gpu_sim::Device::admit` drawing from its
/// [`FaultPlan`].
///
/// One steering rule: a member's fault fires at task ordinal
/// `payload % tasks`, counting that member's tasks in the fault-free
/// [`Mode::Sync`](crate::backend::Mode::Sync) schedule on one slot — one
/// factor per panel, plus one apply when the panel has trailing columns.
/// Admission faults fail the task with a typed error before it runs, a
/// host panic fails it as [`CaqrError::Panicked`], caught at its member,
/// and an SDC lets it run and then corrupts a value inside checksum
/// coverage. Faults fire from the group methods, the ones the driver
/// calls: the batch engine runs every group, a job alone included, with
/// no recovery policy, so the victim is carved out and a service retry
/// round re-runs it. Under a ladder policy a replay sees clean execution.
/// The per-matrix methods pass straight through.
pub(crate) struct Faulty<B> {
    inner: B,
    /// Per member: the armed fault and the task ordinal it fires at.
    armed: Vec<Cell<Option<(u64, PlannedFault)>>>,
    /// Per member: tasks issued so far.
    issued: Vec<Cell<u64>>,
}

impl<B> Faulty<B> {
    /// Arm `faults[j]` against member `j` of an `m x n` group with panel
    /// width `w`.
    pub(crate) fn new(
        inner: B,
        faults: &[Option<PlannedFault>],
        m: usize,
        n: usize,
        w: usize,
    ) -> Faulty<B> {
        let tasks: u64 = DagGeometry::new(m, n, w, 1)
            .steps
            .iter()
            .map(|s| if s.c + s.width < n { 2 } else { 1 })
            .sum();
        Faulty {
            inner,
            armed: faults
                .iter()
                .map(|f| Cell::new(f.map(|f| (f.payload % tasks.max(1), f))))
                .collect(),
            issued: vec![Cell::new(0); faults.len()],
        }
    }

    /// Count one task of member `j`: its armed fault iff this task is the
    /// firing ordinal.
    fn draw(&self, j: usize) -> Option<PlannedFault> {
        let ord = self.issued[j].get();
        self.issued[j].set(ord + 1);
        let (at, f) = self.armed[j].get()?;
        (at == ord).then(|| {
            self.armed[j].set(None);
            f
        })
    }

    /// One group launch under the steering rule: count a task for every
    /// member of `work`, fire its fault, run the members that may still run
    /// in one `launch` of the inner backend, then corrupt the output of any
    /// member whose fault is an SDC. One result per member of `work`.
    fn group_launch<T: Scalar, W: Copy, R>(
        &self,
        mats: &mut [Matrix<T>],
        work: &[W],
        member: impl Fn(W) -> usize,
        kernel: &'static str,
        launch: impl FnOnce(&mut [Matrix<T>], &[W]) -> Vec<Result<R, CaqrError>>,
        sdc: impl Fn(MatPtr<T>, W, PlannedFault),
    ) -> Vec<Result<R, CaqrError>> {
        let fired: Vec<(Option<PlannedFault>, Result<(), CaqrError>)> = work
            .iter()
            .map(|&w| {
                let fault = self.draw(member(w));
                (fault, fire_member(fault, kernel))
            })
            .collect();
        // Members whose fault stops the task leave the packed launch.
        let run: Vec<W> = work
            .iter()
            .zip(&fired)
            .filter(|(_, (_, r))| r.is_ok())
            .map(|(&w, _)| w)
            .collect();
        let mut results = launch(mats, &run).into_iter();
        work.iter()
            .zip(fired)
            .map(|(&w, (fault, fired))| {
                fired?;
                let r = results.next().expect("one result per member run")?;
                if let Some(f) = fault.filter(is_sdc) {
                    sdc(MatPtr::new(&mut mats[member(w)]), w, f);
                }
                Ok(r)
            })
            .collect()
    }
}

/// Fire `fault` against one member's `kernel` task: a typed error for an
/// admission fault, [`CaqrError::Panicked`] for a host panic (raised and
/// caught here, so it fails only that member), nothing for an SDC (which
/// corrupts the task's output instead) or no fault.
fn fire_member(fault: Option<PlannedFault>, kernel: &'static str) -> Result<(), CaqrError> {
    let Some(f) = fault else {
        return Ok(());
    };
    let launch_index = f.ordinal;
    catch_unwind(|| match f.kind {
        FaultKind::LaunchFail => Err(CaqrError::Fault {
            kernel,
            launch_index,
            attempts: 1,
        }),
        FaultKind::Hang => Err(CaqrError::Timeout {
            kernel,
            launch_index,
            deadline_us: 1_000,
        }),
        FaultKind::DeviceLoss => Err(CaqrError::DeviceLost {
            kernel,
            launch_index,
        }),
        FaultKind::HostPanic => panic!("injected host panic: {kernel} task"),
        FaultKind::Sdc => Ok(()),
    })
    .unwrap_or_else(|_| {
        Err(CaqrError::Panicked {
            context: format!("injected host panic: {kernel} task"),
        })
    })
}

/// The SDC corruption `x -> 2x + 1` of one entry, after its task ran.
fn corrupt<T: Scalar>(c: MatPtr<T>, row: usize, col: usize) {
    // SAFETY: called between launches, when no task holds the matrix.
    unsafe { c.set(row, col, c.get(row, col) + c.get(row, col) + T::ONE) }
}

/// A factor-stage SDC hits the panel's `R` diagonal, inside the
/// column-norm checksum's coverage.
fn corrupt_factor<T: Scalar>(c: MatPtr<T>, f: PlannedFault, col0: usize, width: usize) {
    let r = (f.payload % width as u64) as usize;
    corrupt(c, col0 + r, col0 + r);
}

/// An apply-stage SDC hits the first trailing column, inside the predicted
/// column-sum checksum's coverage.
fn corrupt_apply<T: Scalar>(c: MatPtr<T>, pf: &PanelFactor<T>, cols: &[(usize, usize)]) {
    corrupt(c, pf.tiles[0].start, cols[0].0);
}

fn is_sdc(f: &PlannedFault) -> bool {
    f.kind == FaultKind::Sdc
}

impl<T: Scalar, B: CaqrBackend<T>> CaqrBackend<T> for Faulty<B> {
    type Token = B::Token;

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn check_finite(
        &self,
        a: &Matrix<T>,
        bs: BlockSize,
        context: &'static str,
    ) -> Result<usize, CaqrError> {
        self.inner.check_finite(a, bs, context)
    }

    fn pretranspose(&self, m: usize, n: usize, bs: BlockSize) -> Result<usize, CaqrError> {
        self.inner.pretranspose(m, n, bs)
    }

    fn factor_panel(
        &self,
        slot: usize,
        a: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Result<PanelFactor<T>, CaqrError> {
        self.inner.factor_panel(slot, a, row0, col0, width, cfg)
    }

    fn apply_panel(
        &self,
        slot: usize,
        c: MatPtr<T>,
        pf: &PanelFactor<T>,
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Result<(), CaqrError> {
        self.inner.apply_panel(slot, c, pf, cols, transpose)
    }

    fn check_finite_group(
        &self,
        mats: &[Matrix<T>],
        live: &[usize],
        bs: BlockSize,
        context: &'static str,
    ) -> Vec<Result<usize, CaqrError>> {
        self.inner.check_finite_group(mats, live, bs, context)
    }

    fn factor_panel_group(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        live: &[usize],
        row0: usize,
        col0: usize,
        width: usize,
        cfg: &DriveConfig,
    ) -> Vec<Result<PanelFactor<T>, CaqrError>> {
        self.group_launch(
            mats,
            live,
            |j| j,
            "factor",
            |mats, run| {
                self.inner
                    .factor_panel_group(slot, mats, run, row0, col0, width, cfg)
            },
            |c, _, f| corrupt_factor(c, f, col0, width),
        )
    }

    fn apply_panel_group(
        &self,
        slot: usize,
        mats: &mut [Matrix<T>],
        work: &[(usize, &PanelFactor<T>)],
        cols: &[(usize, usize)],
        transpose: bool,
    ) -> Vec<Result<(), CaqrError>> {
        self.group_launch(
            mats,
            work,
            |(j, _)| j,
            "apply",
            |mats, run| {
                self.inner
                    .apply_panel_group(slot, mats, run, cols, transpose)
            },
            |c, (_, pf), _| corrupt_apply(c, pf, cols),
        )
    }

    fn record(&self, slot: usize) -> Self::Token {
        self.inner.record(slot)
    }

    fn wait(&self, slot: usize, token: Self::Token) {
        self.inner.wait(slot, token)
    }

    fn sync(&self) -> Result<(), CaqrError> {
        self.inner.sync()
    }

    fn q_ones_probe(&self, m: usize, pf: &PanelFactor<T>) -> Vec<T> {
        self.inner.q_ones_probe(m, pf)
    }

    fn charge_verify(&self, elems: usize) {
        self.inner.charge_verify(elems)
    }

    fn charge_snapshot(&self, elems: usize) {
        self.inner.charge_snapshot(elems)
    }

    fn note_recovery(&self, report: &RecoveryReport) {
        self.inner.note_recovery(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{drive_group, CpuBackend, Factorization, Mode};
    use crate::block::TreeShape;
    use crate::multicore::{caqr_cpu, CpuCaqrOptions};
    use crate::recovery::RecoveryPolicy;

    /// The §10 ladder on the host: a group of one on a [`Faulty`]
    /// [`CpuBackend`] under `policy`, with one planned fault.
    fn solo_ladder(
        a: Matrix<f64>,
        opts: CpuCaqrOptions,
        fault: Option<PlannedFault>,
        policy: &RecoveryPolicy,
    ) -> Result<(Factorization<f64>, RecoveryReport), CaqrError> {
        let (m, n) = a.shape();
        let cfg = opts.drive_config();
        let backend = Faulty::new(CpuBackend, &[fault], m, n, cfg.bs.w);
        drive_group(&backend, vec![a], &cfg, Mode::Sync, Some(policy)).solo()
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
                    let fault = Some(PlannedFault {
                        kind,
                        ordinal: 9,
                        payload,
                    });
                    let (got, r) = solo_ladder(a.clone(), opts(), fault, policy)
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
                let (got, _) = solo_ladder(mk(1), o, Some(fault), &RecoveryPolicy::default())
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
