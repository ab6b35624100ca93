//! Batched multi-tenant QR service: a bounded admission queue feeding
//! supervised worker threads that pack many independent CAQR jobs into
//! **shape-fused launches** (DESIGN.md §14), with service-tier fault
//! tolerance layered on top (DESIGN.md §15).
//!
//! The paper's design wins by keeping the hardware saturated; production
//! traffic is not one 65536x16 matrix but thousands of concurrent
//! small-to-large factorizations. At tall-skinny widths the host path is
//! launch-bound, not flop-bound — the vendored rayon shim (like a real GPU
//! at small grid sizes) pays a fixed fan-out cost per parallel region — so
//! the throughput core here is [`factor_many`]: jobs whose matrices share a
//! shape class walk the synchronous panel schedule **in lockstep**, with
//! every per-tile task of every job packed into one parallel region
//! (per-job offsets into one flat work list). Because each
//! [`crate::blockops`] task is a pure function of its own job's matrix
//! region, fusion changes *where* tasks run and nothing about what they
//! compute: every serviced matrix is bit-identical to a standalone
//! [`caqr_cpu`](crate::multicore::caqr_cpu) run, which the conformance
//! suite pins.
//!
//! On top of the batch engine sits [`Service`]: a bounded, backpressured
//! admission queue ([`Service::submit`] blocks when full,
//! [`Service::try_submit`] returns the job), priority classes, optional
//! per-job deadlines (expired jobs are shed at dispatch — the admission
//! analogue of the gpu-sim watchdog that kills hung launches), and a
//! per-tenant [`ServiceLedger`] split out of the global counters, whose
//! per-tenant sums reconcile exactly against the global row.
//!
//! The resilience layer (PR 10) extends all of that to misbehaving
//! traffic and misbehaving infrastructure:
//!
//! * **one recovery path: carve, then re-run** — [`factor_many`]
//!   threads the ABFT checksums of [`crate::health`] and per-task
//!   `catch_unwind` isolation through every batch group, a job alone in
//!   its group included, so a job hit by an injected SDC / hang / launch
//!   fault (or whose task panics) is *carved out* with a typed
//!   [`CaqrError`] while its riders complete untouched and bit-identical.
//!   The service then re-runs the carved jobs from their specs in retry
//!   rounds — each round one batch call over every still-retryable job,
//!   so retried jobs fuse with each other — under a bounded
//!   [`RetryBudget`] with exponential backoff. The §10 replay ladder stays
//!   with [`crate::drive_recovering`] on the simulator, where its costs
//!   are modelled.
//! * **worker supervision** — worker bodies run under `catch_unwind` and
//!   hold the batch they serve in their own stack frame; after a panic
//!   the worker counts the death, resolves that batch's unresolved
//!   tickets with [`ServiceError::WorkerLost`] and goes back to serving,
//!   so every admitted [`Ticket`] resolves with a result or a typed
//!   error, never a hang. [`Service::shutdown_now`] drains still-queued
//!   jobs in admission order with [`ServiceError::ShuttingDown`]. Every
//!   ticket, whatever its end, is resolved in one place, which charges
//!   the ledger before it sends the outcome.
//! * **overload protection** — per-tenant admission quotas
//!   ([`TenantQuota`]) and a circuit breaker ([`ShedPolicy`]) that sheds
//!   `Batch`-priority work when queue depth or the deadline-miss rate
//!   crosses a threshold, with hysteresis and ledger-visible shed counters.

mod batch;
mod ledger;
mod queue;
mod resilience;

pub use batch::{factor_many, logical_launches, BatchStats};
pub use ledger::{ServiceLedger, TenantCounters};
pub use queue::{JobOutcome, Service, Ticket};
pub use resilience::{
    service_retryable, ResilienceConfig, RetryBudget, ServiceFaultPlan, ShedPolicy, TenantQuota,
};

use crate::error::CaqrError;
use crate::multicore::CpuCaqrOptions;
use dense::matrix::Matrix;
use dense::scalar::Scalar;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Recover a lock even if a holder panicked: the queue, ledger and
/// breaker hold plain data whose invariants are re-established by every
/// transition, so continuing after a poisoned lock beats deadlocking the
/// service — a worker that panicked mid-section must not take the whole
/// pool down with it.
pub(crate) fn lock<'a, S>(m: &'a Mutex<S>) -> MutexGuard<'a, S> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// Priority class of a service job. Lower is served first when the queue
/// has a backlog; within a class, admission order wins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive: always dispatched ahead of a backlog.
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic that tolerates queueing — and is the first (and
    /// only) class the overload breaker sheds.
    Batch,
}

impl Priority {
    /// All classes, in dispatch-preference order.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Stable lowercase name (report keys, ledger rows).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// One factorization request: the matrix, the host options, and the
/// multi-tenant metadata the scheduler and ledger act on.
pub struct JobSpec<T: Scalar> {
    /// The matrix to factor.
    pub a: Matrix<T>,
    /// Host CAQR options (tile shape, tree, checksums).
    pub opts: CpuCaqrOptions,
    /// Accounting identity the job is charged to.
    pub tenant: String,
    /// Dispatch priority class.
    pub priority: Priority,
    /// Optional completion deadline, relative to submission. A job still
    /// queued past its deadline is **shed** at dispatch with
    /// [`ServiceError::DeadlineExpired`] instead of burning worker time; a
    /// job that completes late is served but counted as a deadline miss.
    pub deadline: Option<Duration>,
}

impl<T: Scalar> JobSpec<T> {
    /// A default-tenant, standard-priority, deadline-free job.
    pub fn new(a: Matrix<T>, opts: CpuCaqrOptions) -> JobSpec<T> {
        JobSpec {
            a,
            opts,
            tenant: "default".to_string(),
            priority: Priority::Standard,
            deadline: None,
        }
    }

    /// Set the tenant id.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Set the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the completion deadline (relative to submission).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

// ---------------------------------------------------------------------------
// Service configuration
// ---------------------------------------------------------------------------

/// Service sizing and policy knobs. The resilience, shedding and quota
/// fields all default to "off" — a default-configured service behaves
/// exactly like the pre-resilience service (no verification overhead, no
/// shedding beyond expired deadlines, no quotas).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads pulling batches off the queue (min 1).
    pub workers: usize,
    /// Queue bound: [`Service::submit`] blocks and [`Service::try_submit`]
    /// rejects once this many jobs are queued (backpressure).
    pub queue_capacity: usize,
    /// Largest fused group a worker will gather per dispatch. `1` disables
    /// fusion (the one-at-a-time baseline of the benches).
    pub max_batch: usize,
    /// Fault injection, batch verification, and the retry-round budget.
    pub resilience: ResilienceConfig,
    /// Overload circuit-breaker policy (default: disabled).
    pub shed: ShedPolicy,
    /// Per-tenant admission quota (default: unlimited).
    pub quota: TenantQuota,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 8,
            resilience: ResilienceConfig::default(),
            shed: ShedPolicy::disabled(),
            quota: TenantQuota::Unlimited,
        }
    }
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why a submission was not accepted. The job comes back untouched.
pub enum SubmitError<T: Scalar> {
    /// The queue is at capacity (only from [`Service::try_submit`]).
    Full(JobSpec<T>),
    /// The tenant has hit its admission quota ([`TenantQuota`]); the job is
    /// rejected immediately — quota violations never block, even through
    /// [`Service::submit`], so one tenant cannot park on the backpressure
    /// path and starve the rest.
    QuotaExceeded {
        /// The rejected job.
        spec: JobSpec<T>,
        /// Jobs the tenant already had queued.
        queued: usize,
        /// The cap that was hit.
        quota: usize,
    },
    /// The service is shutting down.
    Shutdown(JobSpec<T>),
}

impl<T: Scalar> std::fmt::Debug for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "SubmitError::Full"),
            SubmitError::QuotaExceeded { queued, quota, .. } => write!(
                f,
                "SubmitError::QuotaExceeded {{ queued: {queued}, quota: {quota} }}"
            ),
            SubmitError::Shutdown(_) => write!(f, "SubmitError::Shutdown"),
        }
    }
}

impl<T: Scalar> std::fmt::Display for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => {
                write!(f, "queue full: the job was returned to the caller")
            }
            SubmitError::QuotaExceeded { queued, quota, .. } => write!(
                f,
                "tenant quota exceeded: {queued} jobs already queued against a cap of {quota}"
            ),
            SubmitError::Shutdown(_) => {
                write!(
                    f,
                    "service is shutting down: the job was returned to the caller"
                )
            }
        }
    }
}

impl<T: Scalar> std::error::Error for SubmitError<T> {}

/// Why a serviced job failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The factorization itself failed.
    Caqr(CaqrError),
    /// The job was still queued when its deadline passed; it was shed at
    /// dispatch without factoring (the admission-side analogue of the
    /// watchdog killing a hung launch).
    DeadlineExpired {
        /// How long the job had been queued when it was shed.
        queued: Duration,
        /// The deadline it carried.
        deadline: Duration,
    },
    /// The overload circuit breaker was open at dispatch and the job's
    /// class is sheddable ([`Priority::Batch`]); it was dropped to protect
    /// latency-sensitive traffic (DESIGN.md §15).
    Overloaded {
        /// Queue depth observed at the shedding dispatch.
        queue_depth: usize,
        /// The class the job ran under.
        priority: Priority,
    },
    /// The job kept failing with retryable faults until the retry-round
    /// budget ([`RetryBudget`]) ran out.
    RetryExhausted {
        /// Retry rounds performed.
        attempts: u32,
        /// The error the final attempt died with.
        last: CaqrError,
    },
    /// The worker thread serving the job panicked before delivering a
    /// result. The worker resolves the ticket with this error and goes back
    /// to serving; resubmitting the job is safe.
    WorkerLost {
        /// Index of the worker that panicked, when it resolved the ticket
        /// itself; `None` when the loss was detected structurally (the
        /// result channel closed without a message).
        worker: Option<usize>,
    },
    /// The service shut down before the job was served
    /// ([`Service::shutdown_now`] drains queued jobs with this error, in
    /// admission order).
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Caqr(e) => write!(f, "factorization failed: {e}"),
            ServiceError::DeadlineExpired { queued, deadline } => write!(
                f,
                "deadline expired: queued {:.1} ms against a {:.1} ms deadline",
                queued.as_secs_f64() * 1e3,
                deadline.as_secs_f64() * 1e3
            ),
            ServiceError::Overloaded {
                queue_depth,
                priority,
            } => write!(
                f,
                "overloaded: {} job shed with the circuit breaker open at queue depth {queue_depth}",
                priority.name()
            ),
            ServiceError::RetryExhausted { attempts, last } => write!(
                f,
                "retry budget exhausted after {attempts} retry rounds; last error: {last}"
            ),
            ServiceError::WorkerLost { worker } => match worker {
                Some(w) => write!(f, "worker {w} died before delivering the job's result"),
                None => write!(
                    f,
                    "a worker died before delivering the job's result (channel closed)"
                ),
            },
            ServiceError::ShuttingDown => {
                write!(f, "service shut down before the job completed")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Caqr(e) | ServiceError::RetryExhausted { last: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<CaqrError> for ServiceError {
    fn from(e: CaqrError) -> Self {
        ServiceError::Caqr(e)
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use std::error::Error;

    fn opts() -> CpuCaqrOptions {
        CpuCaqrOptions {
            tile_rows: 16,
            panel_width: 4,
            tree: crate::block::TreeShape::DeviceArity,
            verify_checksums: false,
        }
    }

    fn spec() -> JobSpec<f64> {
        JobSpec::new(dense::generate::uniform::<f64>(32, 4, 1), opts())
    }

    #[test]
    fn every_service_error_variant_displays_its_facts() {
        let caqr_err = CaqrError::BadShape("empty matrix 0x4".into());
        let cases: Vec<(ServiceError, Vec<&str>)> = vec![
            (
                ServiceError::Caqr(caqr_err.clone()),
                vec!["factorization failed", "empty matrix 0x4"],
            ),
            (
                ServiceError::DeadlineExpired {
                    queued: Duration::from_millis(250),
                    deadline: Duration::from_millis(100),
                },
                vec!["deadline expired", "250.0 ms", "100.0 ms"],
            ),
            (
                ServiceError::Overloaded {
                    queue_depth: 48,
                    priority: Priority::Batch,
                },
                vec!["overloaded", "batch", "48"],
            ),
            (
                ServiceError::RetryExhausted {
                    attempts: 3,
                    last: CaqrError::Timeout {
                        kernel: "factor",
                        launch_index: 7,
                        deadline_us: 1000,
                    },
                },
                vec!["retry budget exhausted", "3", "factor"],
            ),
            (
                ServiceError::WorkerLost { worker: Some(2) },
                vec!["worker 2", "died"],
            ),
            (
                ServiceError::WorkerLost { worker: None },
                vec!["died", "channel closed"],
            ),
            (ServiceError::ShuttingDown, vec!["shut down"]),
        ];
        for (e, needles) in cases {
            let s = e.to_string();
            for needle in needles {
                assert!(
                    s.contains(needle),
                    "{e:?} renders {s:?}, missing {needle:?}"
                );
            }
        }
    }

    #[test]
    fn source_chains_through_to_the_caqr_error() {
        let inner = CaqrError::ChecksumMismatch {
            stage: "apply",
            panel: 1,
            col: 9,
        };
        let e = ServiceError::Caqr(inner.clone());
        let src = e.source().expect("Caqr carries a source");
        assert!(src.to_string().contains("checksum mismatch"));
        let e = ServiceError::RetryExhausted {
            attempts: 2,
            last: inner,
        };
        let src = e.source().expect("RetryExhausted carries a source");
        assert!(src.to_string().contains("checksum mismatch"));
        for e in [
            ServiceError::DeadlineExpired {
                queued: Duration::ZERO,
                deadline: Duration::ZERO,
            },
            ServiceError::Overloaded {
                queue_depth: 0,
                priority: Priority::Standard,
            },
            ServiceError::WorkerLost { worker: None },
            ServiceError::ShuttingDown,
        ] {
            assert!(e.source().is_none(), "{e:?} must not invent a source");
        }
    }

    #[test]
    fn every_submit_error_variant_displays_and_debugs() {
        let full = SubmitError::Full(spec());
        assert!(full.to_string().contains("queue full"));
        assert_eq!(format!("{full:?}"), "SubmitError::Full");
        let quota = SubmitError::QuotaExceeded {
            spec: spec(),
            queued: 9,
            quota: 8,
        };
        let s = quota.to_string();
        assert!(
            s.contains("quota") && s.contains('9') && s.contains('8'),
            "{s}"
        );
        assert!(format!("{quota:?}").contains("QuotaExceeded"));
        let down = SubmitError::Shutdown(spec());
        assert!(down.to_string().contains("shutting down"));
        assert_eq!(format!("{down:?}"), "SubmitError::Shutdown");
        // All three satisfy std::error::Error (source defaults to None).
        for e in [full, quota, down] {
            let e: &dyn std::error::Error = &e;
            assert!(e.source().is_none());
        }
    }
}
